"""Command-line entry points.

    abeltv run --config cfg.json
    abeltv verify-bounds [--trials N] [--seed S]
    abeltv phantom --name nested-annuli --out u0.csv [--n 128]

Exit code 0 iff every run succeeds / every bound check passes, and 2 for
a usage error: a bad argument, a config file that cannot be read or
parsed or that ``ExperimentConfig`` rejects (a phantom that does not fit
``grid_n`` included), an output_dir that cannot be created (nothing is
computed then), a phantom ``--n`` that the phantom does not fit, or a
phantom ``--out`` path that cannot be written. Output is CSV only;
plotting belongs to downstream tools.
"""

from __future__ import annotations

import argparse
import os
import sys

# One BLAS thread unless the user set a count: the BLAS kernels' summation
# order depends on it, so a run's bytes would depend on the host. numpy reads
# the count when it loads; a process that loaded it first keeps its setting.
if "numpy" not in sys.modules:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")

# Imported at start-up, not in its command: the benchmark imports this module
# before it times a command, and a deferred import would charge verify-bounds
# for compiling `analytic`.
from .analytic import verify_bounds  # noqa: E402
from .experiments import ExperimentConfig, run_experiment  # noqa: E402
from .grids import GridRZ  # noqa: E402
from .phantoms import BUILTIN_PHANTOM_NAMES, builtin_phantom, rasterize_phantom  # noqa: E402

__all__ = ["main"]


def _cmd_run(args, error) -> int:
    try:
        cfg = ExperimentConfig.from_json_file(args.config)
    except (OSError, ValueError) as exc:
        error(f"--config {args.config}: {exc}")
    try:
        cfg.output_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        error(f"--config {args.config}: output_dir: {exc}")
    outcomes = run_experiment(cfg)
    for i, out in enumerate(outcomes):
        detail = f" err_l2_uh={out.err_l2_uh:.6f} c_star={out.c_star:.4f} solve={out.solve_s:.3f}s" if out.status == "ok" else ""
        reason = f": {out.reason}" if out.reason else ""
        print(f"run {i}: sigma2_frac={out.sigma2_frac:g}{detail} status={out.status}{reason}")
    print(f"results written to {cfg.output_dir / 'results.csv'}")
    return 0 if all(o.status == "ok" for o in outcomes) else 1


def _cmd_verify_bounds(args, error) -> int:
    try:
        ratios = verify_bounds(seed=args.seed, trials=args.trials)
    except ValueError as exc:
        error(str(exc))
    print(f"bound suites: {args.trials} trials, seed {args.seed}")
    width = max(map(len, ratios))
    for name, ratio in ratios.items():
        print(f"{name:<{width}}  max ratio {ratio:.6f}  {'PASS' if ratio <= 1.0 else 'FAIL'}")
    passed = all(ratio <= 1.0 for ratio in ratios.values())
    print("all bounds hold" if passed else "BOUND VIOLATION (implementation bug)")
    return 0 if passed else 1


def _cmd_phantom(args, error) -> int:
    try:
        u0 = rasterize_phantom(builtin_phantom(args.name), GridRZ(args.n))
    except ValueError as exc:
        error(f"argument --n: {exc}")
    try:
        u0.to_csv(args.out)
    except OSError as exc:
        error(f"argument --out: {exc}")
    print(f"wrote {args.name} at n_r={args.n} to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="abeltv",
        description="TV-regularized Abel inversion experiments and bound checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a reconstruction experiment from a JSON config")
    p_run.add_argument("--config", required=True, help="path to the experiment JSON config")
    p_run.set_defaults(func=_cmd_run)

    p_vb = sub.add_parser("verify-bounds", help="run the analytic inequality suites")
    p_vb.add_argument("--trials", type=int, default=1000)
    p_vb.add_argument("--seed", type=int, default=20240)
    p_vb.set_defaults(func=_cmd_verify_bounds)

    p_ph = sub.add_parser("phantom", help="rasterize a built-in phantom to CSV")
    p_ph.add_argument("--name", required=True, choices=list(BUILTIN_PHANTOM_NAMES))
    p_ph.add_argument("--out", required=True)
    p_ph.add_argument("--n", type=int, default=128, help="radial cell count (default 128)")
    p_ph.set_defaults(func=_cmd_phantom)

    args = parser.parse_args(argv)
    return args.func(args, parser.error)


if __name__ == "__main__":
    sys.exit(main())
