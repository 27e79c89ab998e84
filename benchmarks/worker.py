"""One sample of one workload, in a fresh interpreter.

    python benchmarks/worker.py --inputs <inputs.json> --spawned-at <t> [--trace | --setup-only]
    python benchmarks/worker.py --environment

run.py starts this process with one BLAS thread and src/ on PYTHONPATH. It
imports abeltv, builds what the workload needs, makes the one timed call
into abeltv's public API, then checks every output against the
computations in reference.py. It prints one JSON line: setup_raw_s (from
`--spawned-at`, a time.monotonic() reading taken by the parent just
before it started this process, to the timed call) and wall_raw_s, with
the time.monotonic() readings that bound them (run.py takes both to the
reference machine speed), peak_rss_mb, the operations attempted and
failed, and the check errors. With `--trace`, the layers are wrapped by
tracing.Tracer and the line also carries the per-layer figures. With
`--setup-only` the process stops before the call and reports the set-up
alone."""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import os
import re
import resource
import sys
import time
from pathlib import Path

# -- set-up and the timed call, per workload --------------------------------
# Each returns a zero-argument callable: the timed call.


def setup_cli_run(abeltv, inputs):
    argv = ["run", "--config", inputs["config_path"]]
    return lambda: _cli(abeltv, argv)


def setup_verify_bounds(abeltv, inputs):
    argv = ["verify-bounds", "--trials", str(inputs["trials"]), "--seed", str(inputs["seed"])]
    return lambda: _cli(abeltv, argv)


def setup_solve(abeltv, inputs):
    grid, _ = abeltv.make_grids(inputs["n"])
    A = abeltv.build_abel_matrix(grid)
    u0 = abeltv.rasterize_phantom(abeltv.builtin_phantom(inputs["phantom"]), grid)
    f = abeltv.add_noise(
        abeltv.apply_abel(A, u0),
        abeltv.NoiseSpec(variance_fraction=inputs["variance_fraction"], seed=inputs["noise_seed"]),
    )
    params = abeltv.SolverParams(
        lam=inputs["lam"],
        tau=inputs["tau"],
        gamma=inputs["gamma"],
        max_iter=inputs["max_iter"],
        record_every=inputs["record_every"],
    )
    return lambda: (A, u0, f, abeltv.solve_tv(A, f, params))


def _cli(abeltv, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = abeltv.cli.main(argv)
    return code, out.getvalue()


SETUP = {
    "experiment-128": setup_cli_run,
    "report-256": setup_cli_run,
    "solve-64": setup_solve,
    "verify-bounds": setup_verify_bounds,
}


# -- checks -------------------------------------------------------------------
# Each returns (attempted, failed) and adds to `chk` every check that did not
# hold on an operation that did not fail.


class Checks:
    def __init__(self):
        self.errors: list[str] = []

    def that(self, ok, message: str) -> bool:
        if not ok:
            self.errors.append(message)
        return bool(ok)

    def close(self, a: float, b: float, rtol: float, what: str) -> bool:
        return self.that(abs(a - b) <= rtol * max(abs(a), abs(b)), f"{what}: {a!r} vs {b!r} (rtol {rtol:g})")


def check_noise(chk, f, f0, variance_fraction, what):
    """f - f0 must look like iid N(0, variance_fraction * max|f0|): mean and
    variance within six standard errors."""
    eta = (f - f0).ravel()
    var = variance_fraction * float(abs(f0).max())
    n = eta.size
    chk.that(abs(eta.mean()) <= 6.0 * (var / n) ** 0.5, f"{what}: noise mean {eta.mean():.3g}")
    chk.that(
        abs(float((eta * eta).mean()) / var - 1.0) <= 6.0 * (2.0 / n) ** 0.5,
        f"{what}: noise variance {float((eta * eta).mean()):.4g} vs {var:.4g}",
    )


def check_experiment(abeltv, inputs, out, chk, converged):
    """Shared by experiment-128 and report-256: every results.csv column is
    recomputed from the dumped fields with the reference matrix and norms,
    and every dump must round-trip bit-exactly."""
    import numpy as np

    import reference as ref

    code, _stdout = out
    cfg = inputs["config"]
    n = cfg["grid_n"]
    out_dir = Path(cfg["output_dir"])
    runs = cfg["runs"]
    with open(out_dir / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not chk.that(len(rows) == len(runs), f"results.csv has {len(rows)} rows for {len(runs)} runs"):
        return len(runs), 0
    failed = sum(row["status"] != "ok" for row in rows)
    # every run must be ok: the checks below skip a run that is not, and the
    # err_l2_uh order needs all of them
    chk.that(failed == 0, f"{failed} runs not ok: {[row['status'] for row in rows]}")
    chk.that(code == (0 if failed == 0 else 1), f"exit code {code} with {failed} failed runs")

    A = ref.abel_matrix(n)
    counts = ref.lattice_cell_counts(n)
    u0 = ref.rasterize(cfg["phantom"], n)
    f0 = A @ u0
    errs = []
    for i, (run, row) in enumerate(zip(runs, rows)):
        if row["status"] != "ok":
            continue
        tag = f"run {i}"
        chk.close(float(row["sigma2_frac"]), run["variance_fraction"], 0.0, f"{tag} sigma2_frac")
        fields = {}
        for name in ("u0", "ustar", "f", "fstar"):
            path = out_dir / f"run{i:02d}_{name}.csv"
            meta, tokens, values = ref.parse_field_csv(path)
            chk.that(
                (int(meta["n_r"]), int(meta["n_z"]), float(meta["h"])) == (n, 2 * n + 1, 1.0 / n),
                f"{path.name}: header {meta}",
            )
            chk.that(
                list(map(repr, values.ravel().tolist())) == tokens,
                f"{path.name}: values not in shortest round-trip form",
            )
            cls = abeltv.RadialField if name in ("u0", "ustar") else abeltv.ProjectionField
            chk.that(np.array_equal(cls.from_csv(path).values, values), f"{path.name}: from_csv differs from the text")
            fields[name] = values
        chk.that(np.array_equal(fields["u0"], u0), f"{tag}: u0 differs from the tabulated phantom")
        fstar = A @ fields["ustar"]
        chk.that(
            np.abs(fields["fstar"] - fstar).max() <= 1e-12 * np.abs(fstar).max(),
            f"{tag}: fstar differs from A u*",
        )
        check_noise(chk, fields["f"], f0, run["variance_fraction"], tag)
        q = ref.bound_quantities(fields["ustar"], u0, fields["fstar"], fields["f"], f0, counts)
        for col, value in q.items():
            chk.close(float(row[col]), value, 1e-9, f"{tag} {col}")
        e_ref = ref.energy(fields["ustar"], A, fields["f"], run["lambda"])
        chk.close(float(row["energy_final"]), e_ref, 1e-9, f"{tag} energy_final vs E(u*)")
        iters = int(row["iterations"])
        chk.that(1 <= iters <= run["max_iter"], f"{tag}: iterations {iters}")
        if converged:
            with open(out_dir / f"run{i:02d}_energy.csv", newline="") as fh:
                trace = [float(r["energy"]) for r in csv.DictReader(fh)]
            c_star = float(row["c_star"])
            chk.that(0.0 < c_star <= 1.07, f"{tag}: C* = {c_star}")
            chk.that(float(row["M"]) == 1.0 and q["M"] == 1.0, f"{tag}: M = {row['M']}")
            tol = inputs["settle_tol"]
            chk.that(
                len(trace) >= 2 and abs(trace[-1] - trace[-2]) <= tol * trace[-1],
                f"{tag}: energy moved by more than {tol:g} over the last record interval: {trace[-2:]}",
            )
            errs.append(float(row["err_l2_uh"]))
    if converged:
        chk.that(all(a > b for a, b in zip(errs, errs[1:])), f"err_l2_uh not decreasing with noise: {errs}")
    return len(runs), failed


def check_solve(abeltv, inputs, out, chk):
    """The independent duality gap certifies the solve; E(u*) and the dual's
    feasibility are recomputed."""
    import numpy as np

    import reference as ref

    A, u0, f, result = out
    n, lam = inputs["n"], inputs["lam"]
    A_ref = ref.abel_matrix(n)
    chk.that(np.abs(A.entries - A_ref).max() <= 1e-14, "Abel matrix differs from the chord-length closed form")
    chk.that(np.array_equal(u0.values, ref.rasterize(inputs["phantom"], n)), "u0 differs from the tabulated phantom")
    f0 = A_ref @ u0.values
    check_noise(chk, f.values, f0, inputs["variance_fraction"], "data")
    u, v = result.u_star.values, result.dual.values
    mag = np.sqrt(v[0] ** 2 + v[1] ** 2).max()
    chk.that(mag <= 1.0 + 1e-12, f"dual cell magnitude {mag!r} > 1")
    e = ref.energy(u, A_ref, f.values, lam)
    chk.close(result.final_energy, e, 1e-10, "final_energy vs E(u*)")
    gap = ref.duality_gap(u, v, A_ref, f.values, lam)
    chk.that(gap >= -1e-12 * e, f"negative duality gap {gap!r}")
    chk.that(gap <= inputs["gap_tol"] * e, f"relative duality gap {gap / e:.3g} > {inputs['gap_tol']:g}")
    chk.that(1 <= result.iterations_run <= inputs["max_iter"], f"iterations {result.iterations_run}")
    return 1, 0


RATIO_LINE = re.compile(r"^(.*\S)\s+max ratio (\S+)\s+(PASS|FAIL)$")


def check_verify_bounds(abeltv, inputs, out, chk):
    """Every printed ratio must be <= 1, and j_norms must agree with
    quadrature of the closed-form transform on seeded profiles."""
    import numpy as np

    import reference as ref

    code, stdout = out
    lines = stdout.splitlines()
    chk.that(
        bool(lines) and lines[0] == f"bound suites: {inputs['trials']} trials, seed {inputs['seed']}",
        f"unexpected first line {lines[:1]}",
    )
    checks = [m.groups() for m in map(RATIO_LINE.match, lines) if m]
    chk.that(len(checks) > 0, "no bound checks printed")
    for name, ratio, status in checks:
        chk.that(status == "PASS" and 0.0 <= float(ratio) <= 1.0, f"{name}: ratio {ratio} {status}")
    chk.that(code == 0, f"exit code {code}")
    rng = np.random.default_rng(inputs["profile_seed"])
    for k in range(inputs["profiles"]):
        edges, values = ref.random_profile(rng, inputs["pieces"])
        got = abeltv.analytic.j_norms(abeltv.analytic.PiecewiseConstantProfile(edges[:-1], values))
        want = ref.j_norms_quad(edges, values)
        chk.close(got[0], want[0], 1e-9, f"profile {k} ||Jv||_L1")
        chk.close(got[1], want[1], 1e-9, f"profile {k} ||Jv||_L2")
    return len(checks), 0


CHECK = {
    "experiment-128": functools.partial(check_experiment, converged=True),
    "report-256": functools.partial(check_experiment, converged=False),
    "solve-64": check_solve,
    "verify-bounds": check_verify_bounds,
}


# -- tracing -----------------------------------------------------------------


def install_tracer(abeltv):
    """Wrap each layer's public functions where their callers look them up."""
    from tracing import Tracer

    import abeltv.analytic
    import abeltv.experiments
    import abeltv.grids
    import abeltv.solver

    t = Tracer()
    ex, so, an, gr = abeltv.experiments, abeltv.solver, abeltv.analytic, abeltv.grids
    t.install([abeltv.cli], "experiments.run_experiment", "run_experiment")
    t.install([abeltv.cli], "experiments.verify_bounds", "verify_bounds")
    t.install([ex, abeltv], "solver.solve_tv", "solve_tv", keep_calls=True)
    t.install([so], "operators.gradient", "gradient")
    t.install([so], "operators.divergence", "divergence")
    t.install([so], "solver.project_unit_ball", "project_unit_ball")
    t.install([so], "solver.energy", "energy")
    t.install([ex], "metrics.bound_report", "bound_report", alloc=True)
    t.install([ex, abeltv], "operators.build_abel_matrix", "build_abel_matrix")
    t.install([ex, abeltv], "phantoms.rasterize_phantom", "rasterize_phantom")
    t.install([ex, abeltv], "operators.apply_abel", "apply_abel")
    t.install([ex, abeltv], "phantoms.add_noise", "add_noise")
    t.install([an], "analytic.j_norms", "j_norms")
    t.install([an], "analytic.random_step_profiles", "random_step_profiles")
    t.install([gr.RadialField, gr.ProjectionField], "grids.to_csv", "to_csv")
    return t


def layer_metrics(tracer, inputs, import_s):
    import reference as ref

    s = tracer.summary()  # layers never called read 0

    def total(name):
        return s[name]["total_s"]

    def self_time(name):
        return s[name]["self_s"]

    iterations = 0
    rel_gap = 0.0
    for _name, bound, result in tracer.calls:
        A, f, params = (bound.arguments[k] for k in ("A", "f", "params"))
        iterations += result.iterations_run
        A_ref = ref.abel_matrix(A.n)
        e = ref.energy(result.u_star.values, A_ref, f.values, params.lam)
        gap = ref.duality_gap(result.u_star.values, result.dual.values, A_ref, f.values, params.lam)
        rel_gap = max(rel_gap, gap / e)
    out_dir = inputs.get("config", {}).get("output_dir")
    output_bytes = sum(p.stat().st_size for p in Path(out_dir).iterdir()) if out_dir else 0
    return {
        "abeltv.import_s": import_s,
        "solver.solve_tv_self_s": self_time("solver.solve_tv"),
        "solver.iter_ms": 1e3 * total("solver.solve_tv") / iterations if iterations else 0.0,
        "solver.iterations": iterations,
        "solver.rel_gap": rel_gap,
        "operators.gradient_s": total("operators.gradient"),
        "operators.divergence_s": total("operators.divergence"),
        "solver.project_unit_ball_s": total("solver.project_unit_ball"),
        "solver.energy_s": total("solver.energy"),
        "metrics.bound_report_s": total("metrics.bound_report"),
        "metrics.bound_report_alloc_mb": tracer.alloc_peak.get("metrics.bound_report", 0) / 2**20,
        "grids.to_csv_s": total("grids.to_csv"),
        "grids.to_csv_calls": s["grids.to_csv"]["calls"],
        "experiments.output_bytes": output_bytes,
        "operators.build_abel_matrix_s": total("operators.build_abel_matrix"),
        "phantoms.rasterize_phantom_s": total("phantoms.rasterize_phantom"),
        "operators.apply_abel_s": total("operators.apply_abel"),
        "phantoms.add_noise_s": total("phantoms.add_noise"),
        "experiments.run_experiment_self_s": self_time("experiments.run_experiment"),
        "analytic.j_norms_s": total("analytic.j_norms"),
        "analytic.j_norms_calls": s["analytic.j_norms"]["calls"],
        "analytic.random_step_profiles_s": total("analytic.random_step_profiles"),
        "experiments.verify_bounds_self_s": self_time("experiments.verify_bounds"),
    }


# -- environment ----------------------------------------------------------------


def environment() -> dict:
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def main(argv: list[str]) -> int:
    if argv == ["--environment"]:
        import abeltv  # noqa: F401  (warms the file cache for the samples)

        print(json.dumps(environment()))
        return 0
    inputs_path = Path(argv[argv.index("--inputs") + 1])
    spawned_at = float(argv[argv.index("--spawned-at") + 1])
    traced = "--trace" in argv
    inputs = json.loads(inputs_path.read_text())
    workload = inputs["workload"]

    t = time.perf_counter()
    import abeltv
    import abeltv.cli

    import_s = time.perf_counter() - t
    tracer = install_tracer(abeltv) if traced else None
    call = SETUP[workload](abeltv, inputs)
    call_start = time.monotonic()
    setup = {"spawned_at": spawned_at, "call_start": call_start, "setup_raw_s": call_start - spawned_at}
    if "--setup-only" in argv:
        print(json.dumps(setup))
        return 0
    t = time.perf_counter()
    out = call()
    wall_raw_s = time.perf_counter() - t
    call_end = time.monotonic()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    chk = Checks()
    attempted, failed = CHECK[workload](abeltv, inputs, out, chk)
    sample = {
        **setup,
        "call_end": call_end,
        "wall_raw_s": wall_raw_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "errors": chk.errors,
    }
    if tracer is not None:
        sample["layers"] = layer_metrics(tracer, inputs, import_s)
        tracer.dump(inputs_path.parent / "spans.jsonl")
    print(json.dumps(sample))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
