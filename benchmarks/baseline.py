"""Run every workload of BENCHMARK.json over several seeds and write the
figures to benchmarks/BENCH_<label>.json.

    python3 benchmarks/baseline.py --label baseline [--first-seed 1]

Each workload gets RUNS timed runs (seeds first-seed, first-seed+1, ...)
of `run_seconds` each, then one traced run. For every end-to-end metric the
file holds the median of the runs, their quartiles (statistics.quantiles,
n=4) and the spread (q3 - q1) / median; for every per-layer metric the
value of the traced run. The raw (unscaled) set-up and wall times, and
the ratio of the speed probe's loop during a sample's call to its loop
during the same sample's set-up, get the same figures. Runs go one after another; nothing else should run
meanwhile.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUNS = 10


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=900)
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    if proc.returncode != 0 or not lines or not lines[-1]["correct"]:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return lines[0]["environment"], lines[-2], lines[-1]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + RUNS))
    out = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for w in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in seeds:
            env, detail, result = run(w, seed, seconds, 0)
            loop_ratio = statistics.median(s["loop_call_s"] / s["loop_setup_s"] for s in detail["samples"])
            result["metrics"].update(
                {k: {"value": v, "unit": "s"} for k, v in detail["raw"].items()},
                loop_call_over_setup={"value": loop_ratio, "unit": "ratio"},
            )
            results.append(result)
            print(w, seed, json.dumps({k: v["value"] for k, v in result["metrics"].items()}), flush=True)
        figures = {"attempted": sum(r["attempted"] for r in results), "failed": sum(r["failed"] for r in results)}
        for name, unit in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            figures[name] = {"unit": unit["unit"], "median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med, "values": values}
        _, _, traced = run(w, seeds[0], seconds, 1)
        figures["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        out["workloads"][w] = figures
        out["environment"] = env
    path = HERE / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
