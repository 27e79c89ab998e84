"""Experiment harness: phantom -> project -> noise -> solve -> report.

``run_experiment`` executes a batch of reconstruction runs described by an
``ExperimentConfig`` and writes, under the configured output directory:

* ``results.csv`` with header
  ``sigma2_frac,err_l2_uh,resid_l2_vh,M1,c,M,c_star,energy_final,iterations,status``
  (one row per run, failed runs carry status ``failed``, never omitted);
* per-run energy traces ``run<ii>_energy.csv``;
* per-run field dumps ``run<ii>_{u0,ustar,f,fstar}.csv``.

Independent runs share the rasterized phantom and Abel matrix; per-run
noise is keyed by the run's own seed, so results are bit-reproducible for
identical configs run with the same BLAS thread count.

``verify_bounds`` drives the analytic inequality suites and reports each
check as a ratio that must stay <= 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analytic
from .grids import make_grids
from .metrics import BoundReport, bound_report
from .operators import apply_abel, build_abel_matrix
from .phantoms import NoiseSpec, PhantomSpec, add_noise, builtin_phantom, rasterize_phantom
from .solver import SolverDivergedError, SolverParams, energy_trace_to_csv, solve_tv

__all__ = [
    "RunSpec",
    "ExperimentConfig",
    "RunOutcome",
    "run_experiment",
    "BoundCheck",
    "BoundCheckSummary",
    "verify_bounds",
    "RESULTS_HEADER",
]

RESULTS_HEADER = "sigma2_frac,err_l2_uh,resid_l2_vh,M1,c,M,c_star,energy_final,iterations,status"


@dataclass(frozen=True)
class RunSpec:
    variance_fraction: float
    lam: float
    tau: float
    gamma: float
    max_iter: int
    seed: int
    record_every: int = 100

    def solver_params(self) -> SolverParams:
        return SolverParams(
            lam=self.lam,
            tau=self.tau,
            gamma=self.gamma,
            max_iter=self.max_iter,
            record_every=self.record_every,
        )


@dataclass(frozen=True)
class ExperimentConfig:
    grid_n: int
    phantom: PhantomSpec
    runs: tuple[RunSpec, ...]
    output_dir: Path
    phantom_name: str = "custom"

    def __post_init__(self):
        if len(self.runs) == 0:
            raise ValueError("runs must be nonempty")
        object.__setattr__(self, "runs", tuple(self.runs))
        object.__setattr__(self, "output_dir", Path(self.output_dir))

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        """Parse the JSON config schema.

        ``phantom`` is either a built-in name or an inline shape list; each
        run gives ``variance_fraction, lambda, tau, gamma, max_iter, seed``
        (optional ``record_every``).
        """
        phantom = obj["phantom"]
        if isinstance(phantom, str):
            name, spec = phantom, builtin_phantom(phantom)
        else:
            name, spec = "custom", PhantomSpec.from_json(json.dumps(phantom))
        runs = tuple(
            RunSpec(
                variance_fraction=float(r["variance_fraction"]),
                lam=float(r["lambda"]),
                tau=float(r["tau"]),
                gamma=float(r["gamma"]),
                max_iter=int(r["max_iter"]),
                seed=int(r["seed"]),
                record_every=int(r.get("record_every", 100)),
            )
            for r in obj["runs"]
        )
        return cls(
            grid_n=int(obj["grid_n"]),
            phantom=spec,
            runs=runs,
            output_dir=Path(obj["output_dir"]),
            phantom_name=name,
        )

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True)
class RunOutcome:
    index: int
    status: str  # "ok" or "failed"
    report: BoundReport | None
    energy_final: float
    iterations: int


def run_experiment(cfg: ExperimentConfig) -> list[RunOutcome]:
    """Execute every run in the config; see module docstring for outputs.

    Solver divergence marks the run failed in results.csv and the returned
    outcomes; remaining runs continue.
    """
    out_dir = cfg.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    grid, g3 = make_grids(cfg.grid_n)
    A = build_abel_matrix(grid)
    u0 = rasterize_phantom(cfg.phantom, grid)
    f0 = apply_abel(A, u0)

    outcomes: list[RunOutcome] = []
    rows: list[str] = [RESULTS_HEADER]
    for i, run in enumerate(cfg.runs):
        f = add_noise(f0, NoiseSpec(variance_fraction=run.variance_fraction, seed=run.seed))
        try:
            result = solve_tv(A, f, run.solver_params())
        except SolverDivergedError:
            outcomes.append(
                RunOutcome(index=i, status="failed", report=None, energy_final=math.nan, iterations=0)
            )
            rows.append(
                ",".join([repr(float(run.variance_fraction))] + ["nan"] * 7 + ["0", "failed"])
            )
            continue
        f_star = apply_abel(A, result.u_star)
        report = bound_report(result.u_star, u0, f_star, f, f0, g3)
        outcomes.append(
            RunOutcome(
                index=i,
                status="ok",
                report=report,
                energy_final=result.final_energy,
                iterations=result.iterations_run,
            )
        )
        rows.append(
            report.csv_row(run.variance_fraction)
            + f",{float(result.final_energy)!r},{result.iterations_run},ok"
        )
        energy_trace_to_csv(result, out_dir / f"run{i:02d}_energy.csv")
        u0.to_csv(out_dir / f"run{i:02d}_u0.csv")
        result.u_star.to_csv(out_dir / f"run{i:02d}_ustar.csv")
        f.to_csv(out_dir / f"run{i:02d}_f.csv")
        f_star.to_csv(out_dir / f"run{i:02d}_fstar.csv")

    (out_dir / "results.csv").write_text("\n".join(rows) + "\n")
    return outcomes


@dataclass(frozen=True)
class BoundCheck:
    name: str
    max_ratio: float

    @property
    def passed(self) -> bool:
        return self.max_ratio <= 1.0


@dataclass(frozen=True)
class BoundCheckSummary:
    checks: tuple[BoundCheck, ...]
    trials: int
    seed: int

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def format_lines(self) -> list[str]:
        width = max(len(c.name) for c in self.checks)
        return [
            f"{c.name:<{width}}  max ratio {c.max_ratio:.6f}  {'PASS' if c.passed else 'FAIL'}"
            for c in self.checks
        ]


def verify_bounds(seed: int = 20240, trials: int = 1000) -> BoundCheckSummary:
    """Run the analytic inequality and decay-rate suites.

    Each check is normalized so the reported quantity must be <= 1:
    inequality checks report the max left/right ratio over the seeded
    random step profiles; decay-slope checks report |slope - target| over
    the 0.02 tolerance; the sum-bound suboptimality witness reports the
    transformed norm against the 0.1 threshold while the family's TV stays
    pinned at 1.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")

    worst = analytic.bound_ratios(analytic.random_step_profiles(trials, seed))
    checks = [
        BoundCheck("l2_product_bound", worst["l2_product"]),
        BoundCheck("l1_product_bound", worst["l1_product"]),
        BoundCheck("young_l2", worst["young_l2"]),
        BoundCheck("young_l1", worst["young_l1"]),
    ]

    ks = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    g_l1 = []
    g_l2 = []
    v_l2 = []
    for k in ks:
        fam = analytic.indicator_family(k)
        l1, l2 = analytic.j_norms(fam.profile)
        g_l1.append(l1)
        g_l2.append(l2)
        v_l2.append(fam.profile.norm_l2())
    slope_g_l1 = np.polyfit(np.log(ks), np.log(g_l1), 1)[0]
    slope_g_l2 = np.polyfit(np.log(ks), np.log(g_l2), 1)[0]
    slope_v_l2 = np.polyfit(np.log(ks), np.log(v_l2), 1)[0]
    checks += [
        BoundCheck("decay_slope_g_l1 (-1.5 +/- 0.02)", abs(slope_g_l1 + 1.5) / 0.02),
        BoundCheck("decay_slope_g_l2 (-1.0 +/- 0.02)", abs(slope_g_l2 + 1.0) / 0.02),
        BoundCheck("decay_slope_v_l2 (-0.5 +/- 0.02)", abs(slope_v_l2 + 0.5) / 0.02),
    ]

    # Sum-form bounds cannot see ||v_k||_L2 -> 0 while the TV stays 1: the
    # witness is that the transform norm collapses with the TV pinned.
    fam16 = analytic.indicator_family(16.0)
    _, g16_l2 = analytic.j_norms(fam16.profile)
    checks.append(BoundCheck("sum_bound_witness_g16_l2 (< 0.1)", g16_l2 / 0.1))
    checks.append(
        BoundCheck("indicator_tv_pinned (= 1)", abs(fam16.profile.tv() - 1.0) / 1e-12)
    )

    # Product-bound tightness on the indicator family: the ratio is a
    # k-independent constant strictly below 1.
    C = analytic.bound_constants()
    ratio = 0.0
    for k in (4.0, 16.0, 64.0, 256.0):
        fam = analytic.indicator_family(k)
        _, g_l2_k = analytic.j_norms(fam.profile)
        ratio = max(
            ratio,
            fam.profile.norm_l2() / (C.c_l2_2d * math.sqrt(fam.profile.tv()) * math.sqrt(g_l2_k)),
        )
    checks.append(BoundCheck("indicator_l2_ratio (< 1)", ratio))

    return BoundCheckSummary(checks=tuple(checks), trials=trials, seed=seed)
