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

The primal step applies a precomputed inverse: K = (I + tau lambda A^T A)^(-1)
and c = K (tau lambda A^T f) are formed once per solve, and each iteration
is the single matrix product u = K q + c over all axial columns. Forming the
inverse is safe because the system is well conditioned: its condition
number is at most 1 + tau lambda ||A||^2 with ||A||^2 < 3.6, about 55 at
tau = 0.2, lambda = 80 on every grid, and never more than cond(A)^2, about
(1.1 n_r)^2, at any lambda. The iteration writes into buffers allocated
once per solve. No randomness anywhere: for the same BLAS thread count,
identical inputs give bit-identical iterates (the BLAS kernels' summation
order depends on that count).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .grids import DualField, ProjectionField, RadialField
from .metrics import tv_seminorm
from .operators import AbelMatrix, _divergence_into, _gradient_into, apply_abel_transpose

# Not called here: the benchmark's layer trace (benchmarks/worker.py) wraps
# these names on this module, so they stay importable from it.
from .operators import divergence, gradient  # noqa: F401

__all__ = [
    "SolverParams",
    "SolveResult",
    "SolverDivergedError",
    "energy",
    "solve_tv",
    "solve_onion_peeling",
    "project_unit_ball",
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
    iterations. The steps must satisfy tau*gamma*||D||^2 < 1; ||D||^2 <= 8
    for per-cell differences, so 8*tau*gamma >= 1 is rejected here.
    """

    lam: float
    tau: float
    gamma: float
    max_iter: int
    record_every: int = 100

    def __post_init__(self):
        for name in ("lam", "tau", "gamma"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if 8.0 * self.tau * self.gamma >= 1.0:
            raise ValueError(f"8*tau*gamma must be < 1, got tau={self.tau}, gamma={self.gamma}")
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
    out = np.array(p, dtype=float)
    _project_unit_ball_inplace(out, np.empty_like(out))
    return out


def _project_unit_ball_inplace(p: np.ndarray, scratch: np.ndarray) -> None:
    """``project_unit_ball`` applied to ``p`` itself; ``scratch`` has the
    shape of ``p`` and is overwritten."""
    np.square(p, out=scratch)
    mag = scratch[0]
    mag += scratch[1]
    np.sqrt(mag, out=mag)
    np.maximum(mag, 1.0, out=mag)
    p /= mag


def energy(u: RadialField, A: AbelMatrix, f: ProjectionField, lam: float) -> float:
    """Objective value E(u) = h^2 sum|Du| + (lam/2) ||Au - f||_{l2(V_h)}^2.

    The TV term is h * tv_seminorm(u)."""
    if A.n != u.grid.n_r or u.grid.n_z != f.grid.n_z or u.grid.n_r != f.grid.n_r:
        raise ValueError("inconsistent shapes between matrix, field and data")
    h = u.grid.h
    resid = A.entries @ u.values - f.values
    return h * tv_seminorm(u) + 0.5 * lam * h * h * float((resid * resid).sum())


def _primal_operator(A: AbelMatrix, tau: float, lam: float) -> np.ndarray:
    """The inverse K = (I + tau*lam*A^T A)^(-1) of the primal system."""
    return np.linalg.inv(np.eye(A.n) + tau * lam * (A.entries.T @ A.entries))


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
    K = _primal_operator(A, tau, lam)
    c = K @ (tau * lam * apply_abel_transpose(A, f))

    u_new = np.empty_like(u)
    w = u.copy()
    q = np.empty_like(u)
    v = np.zeros((2,) + u.shape)
    p = np.empty_like(v)
    scratch = np.empty_like(v)
    trace: list[tuple[int, float]] = []
    t0 = time.perf_counter()
    for it in range(1, params.max_iter + 1):
        # p = v + gamma * D w, then v = p / max(1, |p|)
        _gradient_into(w, p)
        p *= gamma
        p += v
        _project_unit_ball_inplace(p, scratch)
        v, p = p, v
        # q = u + tau * D* v, then u = K q + c
        _divergence_into(v, q, scratch[0])
        q *= tau
        q += u
        np.matmul(K, q, out=u_new)
        u_new += c
        if not np.isfinite(u_new).all():
            raise SolverDivergedError(it)
        # w = 2 u_new - u
        np.multiply(u_new, 2.0, out=w)
        w -= u
        u, u_new = u_new, u
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
