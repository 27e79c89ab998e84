"""abeltv benchmark: one workload, measured for a fixed time.

    python3 benchmarks/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (inputs are made from --seed; the same seed gives the same inputs):

* experiment-128  `abeltv run`: nested-annuli, n_r = 128, the four noise
                  levels of acceptance criterion 7, 1500 iterations each.
* solve-64        `solve_tv` on the criterion-6 problem (n_r = 64), 4000
                  iterations, certified by an independent duality gap.
* report-256      `abeltv run`: four-blobs, n_r = 256, three runs of ten
                  iterations, so bound_report and the CSV dumps dominate.
* verify-bounds   `abeltv verify-bounds` with 1000 trials.

Each sample is a fresh interpreter (worker.py) with one BLAS thread, so
setup_s covers interpreter start and `import abeltv`; setup_s and wall_s
are taken at a reference machine speed, read by probe.py in a process of
its own. Samples run one after another (a closed loop with one caller)
until --seconds have passed, the last one possibly ending after that;
then set-up-only samples bring the set-ups timed to MIN_SETUPS. The run
reports medians. With --trace 1 the run instead makes one untraced and
one traced sample and the kernel table (kernels.py), and reports the
per-layer metrics of BENCHMARK.json.

Standard output: one JSON line with the environment, one with the samples
and the medians of the raw (unscaled) times, then the result line
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# no sample starts later than this, so that a run ends within 180 s
LAST_START_S = 100.0
# set-ups timed per run, counting those of the full samples
MIN_SETUPS = 8
SAMPLE_TIMEOUT_S = 150.0
# setup_s and wall_s are reported at the machine speed at which probe.py's
# loop takes REF_LOOP_S: raw time * REF_LOOP_S / the loop's median over the
# same interval, widened to the MIN_PROBES readings nearest to it
REF_LOOP_S = 7e-4
MIN_PROBES = 10

CRITERION_7 = ((0.0025, 50.0), (0.0005, 80.0), (0.0001, 120.0), (0.00002, 170.0))


def config(phantom, n, levels, seeds, max_iter, record_every, out_dir):
    return {
        "grid_n": n,
        "phantom": phantom,
        "output_dir": str(out_dir),
        "runs": [
            {"variance_fraction": vf, "lambda": lam, "tau": 0.2, "gamma": 0.2,
             "max_iter": max_iter, "seed": s, "record_every": record_every}
            for (vf, lam), s in zip(levels, seeds)
        ],
    }


def inputs_experiment_128(seed, run_dir):
    # seed 0 gives criterion 7's noise seeds 101..104
    seeds = [101 + 4 * seed + k for k in range(4)]
    cfg = config("nested-annuli", 128, CRITERION_7, seeds, 1500, 100, run_dir / "out")
    return {"config": cfg, "settle_tol": 0.005}


def inputs_report_256(seed, run_dir):
    seeds = [201 + 3 * seed + k for k in range(3)]
    cfg = config("four-blobs", 256, CRITERION_7[:3], seeds, 10, 5, run_dir / "out")
    return {"config": cfg}


def inputs_solve_64(seed, run_dir):
    # seed 0 gives criterion 6's noise seed 7
    return {
        "n": 64, "phantom": "nested-annuli", "variance_fraction": 0.0005, "noise_seed": 7 + seed,
        "lam": 80.0, "tau": 0.2, "gamma": 0.2, "max_iter": 4000, "record_every": 500,
        "gap_tol": 0.005,
    }


def inputs_verify_bounds(seed, run_dir):
    return {"trials": 1000, "seed": 20240 + seed, "profiles": 4, "pieces": 8, "profile_seed": seed}


WORKLOADS = {
    "experiment-128": inputs_experiment_128,
    "solve-64": inputs_solve_64,
    "report-256": inputs_report_256,
    "verify-bounds": inputs_verify_bounds,
}


class SampleError(RuntimeError):
    pass


def pinned_env() -> dict:
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONPATH=str(ROOT / "src"),
    )
    return env


def run_python(args, env) -> dict:
    """Run a benchmark script in a fresh interpreter; return its last line."""
    proc = subprocess.run(
        [sys.executable, *map(str, args)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SampleError(f"{args[0]} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def sample(inputs, inputs_path, env, *flags) -> dict:
    out_dir = inputs.get("config", {}).get("output_dir")
    if out_dir:
        shutil.rmtree(out_dir, ignore_errors=True)
        Path(out_dir).mkdir(parents=True)
    args = [HERE / "worker.py", "--inputs", inputs_path, "--spawned-at", repr(time.monotonic())]
    return run_python(args + list(flags), env)


class Probe:
    """probe.py, running for the length of a run."""

    def __init__(self, path: Path):
        self.path = path
        self.proc = subprocess.Popen([sys.executable, str(HERE / "probe.py"), str(path)], cwd=ROOT)

    def readings(self) -> list[tuple[float, float]]:
        if not self.path.exists():
            return []
        lines = self.path.read_text().split("\n")[:-1]  # the last line may be partial
        return [tuple(map(float, line.split())) for line in lines]

    def loops(self, t0: float, t1: float) -> tuple[float, float]:
        """The loop's median over [t0, t1] and the time its loops in there took."""
        gaps = sorted((max(t0 - t, t - t1, 0.0), d) for t, d in self.readings())
        inside = [d for gap, d in gaps if gap == 0.0]
        nearest = inside if len(inside) >= MIN_PROBES else [d for _, d in gaps[:MIN_PROBES]]
        if not nearest:
            raise SampleError("the speed probe recorded nothing")
        return statistics.median(nearest), sum(inside)

    def scale(self, s: dict) -> dict:
        """Adds setup_s and, for a full sample, wall_s at the reference speed.
        The probe shares the samples' core, so its own loops are taken out."""
        s["loop_setup_s"], busy = self.loops(s["spawned_at"], s["call_start"])
        s["setup_s"] = (s["setup_raw_s"] - busy) * REF_LOOP_S / s["loop_setup_s"]
        if "call_end" in s:
            s["loop_call_s"], busy = self.loops(s["call_start"], s["call_end"])
            s["wall_s"] = (s["wall_raw_s"] - busy) * REF_LOOP_S / s["loop_call_s"]
        return s

    def stop(self) -> None:
        self.proc.terminate()
        self.proc.wait()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def timed_run(inputs, inputs_path, env, seconds, probe):
    """Samples, one after another, until `seconds` have passed; then
    set-up-only samples until MIN_SETUPS set-ups have been timed."""
    samples = []
    start = time.monotonic()
    while True:
        samples.append(probe.scale(sample(inputs, inputs_path, env)))
        elapsed = time.monotonic() - start
        if elapsed >= seconds or elapsed + elapsed / len(samples) > LAST_START_S:
            break
    setups = [probe.scale(sample(inputs, inputs_path, env, "--setup-only")) for _ in range(MIN_SETUPS - len(samples))]
    return samples, setups


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "abeltv" / "__init__.py").is_file():
        print(f"no abeltv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # on SIGTERM, unwind: subprocess.run kills the running sample, and the
    # finally below stops the probe
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    # the samples and the speed probe share one core, so that the probe
    # reads the speed of the core the samples run on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    bench_out = ROOT / ".bench_out"
    run_dir = bench_out / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    probe = None
    try:
        inputs = {"workload": args.workload, **WORKLOADS[args.workload](args.seed, run_dir)}
        if "config" in inputs:
            inputs["config_path"] = str(run_dir / "config.json")
            Path(inputs["config_path"]).write_text(json.dumps(inputs["config"]))
        inputs_path = run_dir / "inputs.json"
        inputs_path.write_text(json.dumps(inputs))
        env = pinned_env()

        environment = run_python([HERE / "worker.py", "--environment"], env)
        environment.update(git_sha=git_sha(), workload=args.workload, seed=args.seed, trace=args.trace)
        print(json.dumps({"environment": environment}), flush=True)

        probe = Probe(run_dir / "probe.txt")
        setups = []
        if args.trace:
            plain = probe.scale(sample(inputs, inputs_path, env))
            traced = probe.scale(sample(inputs, inputs_path, env, "--trace"))
            shutil.copy(run_dir / "spans.jsonl", bench_out / f"spans-{args.workload}.jsonl")
            (run_dir / "kernels").mkdir()
            kernels = run_python([HERE / "kernels.py", run_dir / "kernels"], env)
            samples = [plain, traced]
            values = {**traced["layers"], **kernels, "trace.overhead_s": traced["wall_s"] - plain["wall_s"]}
            metrics = spec["per_layer"]
        else:
            samples, setups = timed_run(inputs, inputs_path, env, args.seconds, probe)
            values = {
                "setup_s": statistics.median(s["setup_s"] for s in samples + setups),
                "wall_s": statistics.median(s["wall_s"] for s in samples),
                "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
            }
            metrics = spec["end_to_end"]
    except (SampleError, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        if probe is not None:
            probe.stop()
        shutil.rmtree(run_dir, ignore_errors=True)

    raw = {
        "setup_raw_s": statistics.median(s["setup_raw_s"] for s in samples + setups),
        "wall_raw_s": statistics.median(s["wall_raw_s"] for s in samples),
    }
    print(json.dumps({
        "raw": raw,
        "samples": [{k: v for k, v in s.items() if k != "layers"} for s in samples],
        "setups": setups,
    }))
    errors = [e for s in samples for e in s["errors"]]
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": sum(s["attempted"] for s in samples),
        "failed": sum(s["failed"] for s in samples),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
