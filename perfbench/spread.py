"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/spread.py --workloads chern_haldane --seeds 1 2 3 4 5

Runs run.py once per (workload, seed), one run at a time, and prints for
each metric the median over seeds and the interquartile range as a share of
the median (quartiles as statistics.quantiles(values, n=4) gives them),
next to a third of the metric's bound in BENCHMARK.json. Raw results are
appended to perfbench/out/spread.jsonl.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    (HERE / "out").mkdir(exist_ok=True)
    ok = True
    for workload in args.workloads:
        values = {}
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=900)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(HERE / "out" / "spread.jsonl", "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed,
                                     "result": result}) + "\n")
            ok = ok and result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} " + " ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
                flush=True)
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            rel = (q3 - q1) / med if med else float("inf")
            target = bounds[name] / 3
            flag = "ok" if rel < target else "WIDE"
            print(f"  {workload:15s} {name:16s} median={med:.5g} iqr/median={rel:.4f} "
                  f"bound/3={target:.4f} {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
