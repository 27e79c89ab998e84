"""Primal-dual solver for the TV-regularized discrete inverse problem.

The discrete objective minimized by :func:`solve_tv` is

    E(u) = h^2 * sum_cells |D u|  +  (lambda/2) * ||A u - f||_{l2(V_h)}^2

where D takes plain per-cell forward differences (adjacent-sample jumps,
not divided by the spacing) and ||.||_{l2(V_h)} = (h^2 * sum (.)^2)^(1/2).
Per-cell differences are the convention under which the published step
sizes tau = gamma = 0.2 are admissible (tau * gamma * ||D||^2 <= 0.32 < 1);
dividing the differences by h would scale the coupling norm by 1/h and the
same steps blow the iteration up.

One iteration of the saddle-point scheme, from (u, v, w):

    p = v + gamma * D w
    v = p / max(1, |p|)            per-cell Euclidean magnitude
    q = u + tau * D* v             (D* = negative backward-difference div)
    u = (I + tau lambda A^T A)^(-1) (q + tau lambda A^T f)
    w = 2 u_new - u_old

The symmetric positive-definite primal system is factored once (Cholesky)
and reused across all axial columns and iterations. No randomness anywhere:
for the same BLAS thread count, identical inputs give bit-identical
iterates (the BLAS kernels' summation order depends on that count).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from .grids import DualField, ProjectionField, RadialField
from .metrics import tv_seminorm
from .operators import AbelMatrix, apply_abel_transpose, divergence, gradient

__all__ = [
    "SolverParams",
    "SolveResult",
    "SolverDivergedError",
    "energy",
    "solve_tv",
    "solve_onion_peeling",
    "project_unit_ball",
    "energy_trace_to_csv",
]


class SolverDivergedError(RuntimeError):
    """Raised when an iterate stops being finite."""

    def __init__(self, iteration: int):
        super().__init__(f"non-finite iterate at iteration {iteration}")
        self.iteration = iteration


@dataclass(frozen=True)
class SolverParams:
    """Step sizes and schedule of the primal-dual iteration.

    lam is the data-fit weight, tau the primal step, gamma the dual step.
    The run length is fixed at max_iter (no early-exit tolerance), which
    keeps runs exactly reproducible; energy is logged every record_every
    iterations. Step-size admissibility is the caller's responsibility:
    pairs violating tau*gamma*||D||^2 < 1 may diverge, which surfaces as
    SolverDivergedError rather than being silently repaired.
    """

    lam: float
    tau: float
    gamma: float
    max_iter: int
    record_every: int = 100

    def __post_init__(self):
        if not (self.lam > 0 and self.tau > 0 and self.gamma > 0):
            raise ValueError("lam, tau, gamma must be positive")
        if self.max_iter < 1 or self.record_every < 1:
            raise ValueError("max_iter and record_every must be >= 1")


@dataclass(frozen=True)
class SolveResult:
    u_star: RadialField
    dual: DualField
    energy_trace: tuple
    final_energy: float
    iterations_run: int
    wall_time: float


def project_unit_ball(p: np.ndarray) -> np.ndarray:
    """Per-cell isotropic projection p / max(1, |p|) of a stacked pair."""
    mag = np.sqrt(p[0] ** 2 + p[1] ** 2)
    return p / np.maximum(1.0, mag)[None, :, :]


def energy(u: RadialField, A: AbelMatrix, f: ProjectionField, lam: float) -> float:
    """Objective value E(u) = h^2 sum|Du| + (lam/2) ||Au - f||_{l2(V_h)}^2.

    The TV term is h * tv_seminorm(u)."""
    if A.n != u.grid.n_r or u.grid.n_z != f.grid.n_z or u.grid.n_r != f.grid.n_r:
        raise ValueError("inconsistent shapes between matrix, field and data")
    h = u.grid.h
    resid = A.entries @ u.values - f.values
    return h * tv_seminorm(u) + 0.5 * lam * h * h * float((resid * resid).sum())


class _PrimalSystem:
    """Cholesky factorization of I + tau*lam*A^T A, shared across columns."""

    def __init__(self, A: AbelMatrix, tau: float, lam: float):
        self.matrix = np.eye(A.n) + tau * lam * (A.entries.T @ A.entries)
        self._factor = cho_factor(self.matrix)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        # finiteness of the iterates is checked by the solver loop itself
        return cho_solve(self._factor, rhs, check_finite=False)


def solve_tv(
    A: AbelMatrix,
    f: ProjectionField,
    params: SolverParams,
    u_init: RadialField | None = None,
) -> SolveResult:
    """Run the primal-dual iteration for exactly ``params.max_iter`` steps.

    Parameters
    ----------
    A : AbelMatrix
    f : ProjectionField
        Measured data; shapes must agree with ``A``.
    params : SolverParams
    u_init : RadialField, optional
        Starting point; defaults to zero. The dual always starts at zero.

    Returns
    -------
    SolveResult
        Minimizer estimate, final dual variable (per-cell magnitude <= 1),
        and the energy trace sampled every ``record_every`` iterations plus
        the final iteration.

    Raises
    ------
    SolverDivergedError
        If an iterate becomes non-finite; the offending iteration is named.
    """
    if A.n != f.grid.n_r:
        raise ValueError(f"matrix size {A.n} != data n_r {f.grid.n_r}")
    grid = f.grid
    if u_init is not None:
        if u_init.grid != grid:
            raise ValueError("u_init grid does not match data grid")
        u = u_init.values.copy()
    else:
        u = np.zeros((grid.n_r, grid.n_z))

    tau, gamma, lam = params.tau, params.gamma, params.lam
    system = _PrimalSystem(A, tau, lam)
    rhs_data = tau * lam * apply_abel_transpose(A, f)

    v = np.zeros((2, grid.n_r, grid.n_z))
    w = u.copy()
    trace: list[tuple[int, float]] = []
    t0 = time.perf_counter()
    for it in range(1, params.max_iter + 1):
        p = v + gamma * gradient(w, h=1.0)
        v = project_unit_ball(p)
        q = u + tau * divergence(v, h=1.0)
        u_new = system.solve(q + rhs_data)
        if not np.isfinite(u_new).all():
            raise SolverDivergedError(it)
        w = 2.0 * u_new - u
        u = u_new
        if it % params.record_every == 0 or it == params.max_iter:
            trace.append((it, energy(RadialField(grid, u), A, f, lam)))
    wall = time.perf_counter() - t0

    return SolveResult(
        u_star=RadialField(grid, u),
        dual=DualField(grid, v),
        energy_trace=tuple(trace),
        final_energy=trace[-1][1],
        iterations_run=params.max_iter,
        wall_time=wall,
    )


def solve_onion_peeling(A: AbelMatrix, f: ProjectionField) -> RadialField:
    """Unregularized inversion by back-substitution on the triangular system.

    Exact (to rounding) on consistent data; on noisy data it amplifies the
    noise through the ill-conditioned triangular solve, which is the
    behaviour the TV-regularized solver exists to avoid.
    """
    if A.n != f.grid.n_r:
        raise ValueError(f"matrix size {A.n} != data n_r {f.grid.n_r}")
    u = solve_triangular(A.entries, f.values, lower=False)
    return RadialField(f.grid, u)


def energy_trace_to_csv(result: SolveResult, path) -> None:
    with open(path, "w") as fh:
        fh.write("iteration,energy\n")
        for it, e in result.energy_trace:
            fh.write(f"{it},{float(e)!r}\n")
