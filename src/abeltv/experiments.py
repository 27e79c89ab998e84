"""Experiment harness: phantom -> project -> noise -> solve -> report.

``run_experiment`` executes a batch of reconstruction runs described by an
``ExperimentConfig`` and writes, under the configured output directory:

* ``results.csv``, one row per run, rewritten after every run: the leading
  fields of the run's ``RunOutcome``, whose names make the header. A run
  that raised is never omitted: its record has nan quantities, ``iterations``
  0, status ``failed:<ErrorClass>`` and the exception message as ``reason``;
* per-run energy traces ``run<ii>_energy.csv`` (``iteration,energy``);
* per-run field dumps ``run<ii>_{u0,ustar,f,fstar}.csv``; u0 is the same
  phantom in every run, rendered once per experiment.

This module is the only one that knows that layout. Every record checks
its own fields, so a config that constructs, parsed or built in Python, can
run, and a malformed or inadmissible one is rejected with a ValueError
naming the field before anything is computed or written. The JSON parser
checks only object keys, lists and the phantom's name-or-object form.

Each run is a total job over shared read-only inputs (A, u0, f0 and u0's
dump): it passes nothing on and returns any Exception as its failed
outcome. Its noise is keyed by its own seed, so results are bit-reproducible
for identical configs run with the same BLAS thread count, which ``abeltv
run`` pins to one unless the user set it.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, fields
from pathlib import Path

from .grids import GridRZ, _prefixed, _shown
from .metrics import bound_report
from .operators import apply_abel, build_abel_matrix
from .phantoms import NoiseSpec, Shape, _check_support, add_noise, builtin_phantom, rasterize_phantom
from .solver import SolverParams, solve_tv

__all__ = [
    "RunSpec",
    "ExperimentConfig",
    "RunOutcome",
    "run_experiment",
    "RESULTS_HEADER",
]


@dataclass(frozen=True)
class RunSpec:
    """One reconstruction run: how to solve, and which noise to draw."""

    solver: SolverParams
    noise: NoiseSpec

    def __post_init__(self):
        for name, kind in (("solver", SolverParams), ("noise", NoiseSpec)):
            if not isinstance(getattr(self, name), kind):
                raise ValueError(f"{name} must be a {kind.__name__}, got {_shown(getattr(self, name))}")


@dataclass(frozen=True)
class ExperimentConfig:
    grid_n: int
    phantom: tuple[Shape, ...]
    runs: tuple[RunSpec, ...]
    output_dir: Path

    def __post_init__(self):
        for name, kind in (("phantom", Shape), ("runs", RunSpec)):
            value = getattr(self, name)
            if not isinstance(value, (list, tuple)) or not all(isinstance(v, kind) for v in value):
                raise ValueError(f"{name} must be a sequence of {kind.__name__}s, got {_shown(value)}")
            object.__setattr__(self, name, tuple(value))
        if not self.runs:
            raise ValueError("runs must be nonempty")
        if not isinstance(self.output_dir, (str, os.PathLike)):
            raise ValueError(f"output_dir must be a str or os.PathLike, got {_shown(self.output_dir)}")
        with _prefixed("grid_n"):
            grid = GridRZ(self.grid_n)
            _check_support(self.phantom, grid)
        object.__setattr__(self, "grid_n", grid.n_r)
        object.__setattr__(self, "output_dir", Path(self.output_dir))

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        """Parse the JSON config schema, strictly.

        ``phantom`` is either a built-in name or an inline shape list; each
        run gives ``variance_fraction, lambda, tau, gamma, max_iter, seed``
        (optional ``record_every``). The parser checks only keys: an unknown
        or missing one raises ValueError naming it, under the prefix
        ``run <i>: ``, ``shape <i>: `` or ``config: ``. Every value is
        checked by its record, whose ValueError names the field under the
        same prefix.
        """
        with _prefixed("config"):
            top = _fields(obj, ("grid_n", "phantom", "output_dir", "runs"))
            phantom = _phantom(top["phantom"])
            runs = _list(top["runs"], "runs")
        specs = []
        for i, r in enumerate(runs):
            with _prefixed(f"run {i}"):
                r = _fields(r, _RUN_KEYS, {"record_every": SolverParams.record_every})
                solver = SolverParams(r["lambda"], r["tau"], r["gamma"], r["max_iter"], r["record_every"])
                specs.append(RunSpec(solver, NoiseSpec(r["variance_fraction"], r["seed"])))
        with _prefixed("config"):
            return cls(top["grid_n"], phantom, specs, top["output_dir"])

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def _fields(obj, keys: tuple, defaults: dict = {}) -> dict:
    """The JSON object ``obj`` over ``defaults``; its keys must be exactly
    ``keys``, less any in ``defaults``. The values are the records' to check."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected an object, got {obj!r}")
    obj = {**defaults, **obj}
    for key in [*obj, *keys]:
        if key not in keys or key not in obj:
            raise ValueError(f"{'unknown' if key in obj else 'missing'} key {key!r}")
    return obj


def _list(value, key: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a list, got {value!r}")
    return value


def _phantom(value) -> tuple[Shape, ...]:
    """A built-in name, or an inline ``{"shapes": [...]}`` (schema in
    ``phantoms``) parsed as strictly as the rest of the config."""
    if isinstance(value, str):
        return builtin_phantom(value)
    with _prefixed("phantom: malformed inline phantom"):
        shapes = _list(_fields(value, ("shapes",))["shapes"], "shapes")
        return tuple(_shape(s, i) for i, s in enumerate(shapes))


def _shape(obj, i: int) -> Shape:
    with _prefixed(f"shape {i}"):
        return Shape(**_fields(obj, ("kind", "r", "z", "level")))


_RUN_KEYS = ("variance_fraction", "lambda", "tau", "gamma", "max_iter", "seed", "record_every")


@dataclass(frozen=True)
class RunOutcome:
    """One run's record; its first ten fields, by name and in order, are
    the results.csv columns."""

    sigma2_frac: float
    err_l2_uh: float
    resid_l2_vh: float
    M1: float
    c: float
    M: float
    c_star: float
    energy_final: float
    iterations: int
    status: str  # "ok" or "failed:<ErrorClass>"
    solve_s: float  # wall time of the solve_tv call; nan for a failed run
    reason: str  # the exception message of a failed run; "" for an ok run


_COLUMNS = [f.name for f in fields(RunOutcome)[:10]]
RESULTS_HEADER = ",".join(_COLUMNS)


def run_experiment(cfg: ExperimentConfig) -> list[RunOutcome]:
    """Execute every run in the config and return their outcomes in config
    order; see module docstring for outputs. ``output_dir`` is made before
    any work. A failed run does not stop the rest, and results.csv is
    replaced after every run, so an interrupted experiment keeps the rows
    of the runs it finished."""
    out_dir = cfg.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = GridRZ(cfg.grid_n)
    A = build_abel_matrix(grid)
    u0 = rasterize_phantom(cfg.phantom, grid)
    f0 = apply_abel(A, u0)
    u0_csv = b"".join(u0._csv())

    outcomes: list[RunOutcome] = []
    rows = [RESULTS_HEADER]
    for i, run in enumerate(cfg.runs):
        outcomes.append(_run(i, run, A, u0, u0_csv, f0, out_dir))
        rows.append(",".join(str(getattr(outcomes[-1], name)) for name in _COLUMNS))  # str(float) is repr(float)
        tmp = out_dir / "results.csv.tmp"
        tmp.write_text("\n".join(rows) + "\n")
        os.replace(tmp, out_dir / "results.csv")
    return outcomes


def _run(i: int, run: RunSpec, A, u0, u0_csv: bytes, f0, out_dir: Path) -> RunOutcome:
    """Solve, report and dump run ``i`` from the shared inputs, ``u0_csv``
    being u0's dump; any Exception is returned as the failed outcome."""
    vf = run.noise.variance_fraction
    try:
        f = add_noise(f0, run.noise)
        t0 = time.perf_counter()
        result = solve_tv(A, f, run.solver)
        solve_s = time.perf_counter() - t0
        f_star = apply_abel(A, result.u_star)
        report = bound_report(result.u_star, u0, f_star, f, f0, u0.grid)
        trace = ["iteration,energy", *(f"{it},{float(e)!r}" for it, e in result.energy_trace)]
        (out_dir / f"run{i:02d}_energy.csv").write_text("\n".join(trace) + "\n")
        (out_dir / f"run{i:02d}_u0.csv").write_bytes(u0_csv)
        for name, field in (("ustar", result.u_star), ("f", f), ("fstar", f_star)):
            field.to_csv(out_dir / f"run{i:02d}_{name}.csv")
    except Exception as exc:
        return RunOutcome(vf, *[math.nan] * 7, 0, f"failed:{type(exc).__name__}", math.nan, str(exc))
    return RunOutcome(vf, report.err_l2_uh, report.resid_l2_vh, report.m1, report.c, report.m, report.c_star,
                      result.final_energy, result.iterations_run, "ok", solve_s, "")

