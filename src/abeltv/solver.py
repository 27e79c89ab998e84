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

    v = v + gamma * D w
    v = v / max(1, |v|)            per-cell Euclidean magnitude
    q = u + tau * D* v             (D* = negative backward-difference div)
    u = (I + tau lambda A^T A)^(-1) (q + tau lambda A^T f)
    w = 2 u_new - u_old

The primal step applies a precomputed inverse: K = (I + tau lambda A^T A)^(-1)
and c = K (tau lambda A^T f) are formed once per solve, and each iteration
is the single matrix product u = K q + c over all axial columns. Forming the
inverse is safe because the system is well conditioned: its condition
number is at most 1 + tau lambda ||A||^2 with ||A||^2 < 3.6, about 55 at
tau = 0.2, lambda = 80 on every grid, and never more than cond(A)^2, about
(1.1 n_r)^2, at any lambda. No randomness anywhere: for the same BLAS
thread count, identical inputs give bit-identical iterates (the BLAS
kernels' summation order depends on that count; the ``abeltv`` commands
pin it to one unless the user set it, and library callers keep their own).

K and c are formed before the buffers; with c, the iteration lives in
eight (n_r, n_z) arrays allocated once per solve: u, u_new, one buffer for
w and q, the dual v, updated in place, and p. Each buffer keeps one role
for the whole solve, and only u and u_new trade names, once per iteration:

* w and q share a buffer: the gradient reads w before q is written, and
  w is rewritten only after the product K q has consumed q;
* p holds only values that die at the next step: gamma D w until it is
  added to v, then the projection's squares and gathers, then the
  divergence's scratch p[0], then a record point's differences;
* u_new holds the previous u, dead once w is formed: a record point
  takes it for the energy's residual, and then K q is written into it.

So the gradient and divergence steps (``operators``) are bound to their
buffers once per solve, and no stencil view is made in the loop.

The projection changes only the cells with |p|^2 > 1, or NaN, which it
marks in a bool array of one byte per cell, made once per solve: elsewhere
p / max(1, |p|) is p / 1.0, which is p. When at most an eighth of the
cells are marked, it takes the root and the divisions on those cells
alone; above that, the pass over every cell is the faster, and it runs
that. Both forms give the same bits. The loop's only allocation is the
index of the marked cells in the first form, at most one byte per cell,
no more than the finiteness check makes at a record point, the only place
where the iterate is checked. The buffers and K are released before the
result copies u and v, so a solve peaks at about eight arrays, K and the
mask (8.8 MB at n_r = 256).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import DualField, ProjectionField, RadialField, _integer, _real
from .metrics import _tv_sum
from .operators import AbelMatrix, _check_size, _divergence_step, _flat, _gradient_step, _squared_magnitude

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
    """Raised at the first record point with a non-finite iterate, which stays non-finite."""

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
            value = _real(getattr(self, name), name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
            object.__setattr__(self, name, value)
        if 8.0 * self.tau * self.gamma >= 1.0:
            raise ValueError(f"8*tau*gamma must be < 1, got tau={self.tau}, gamma={self.gamma}")
        for name in ("max_iter", "record_every"):
            object.__setattr__(self, name, _integer(getattr(self, name), name, 1))


@dataclass(frozen=True)
class SolveResult:
    u_star: RadialField
    dual: DualField
    energy_trace: tuple
    final_energy: float
    iterations_run: int


def project_unit_ball(p: np.ndarray) -> np.ndarray:
    """Per-cell isotropic projection p / max(1, |p|) of a stacked pair."""
    out = np.array(p, dtype=float, order="C")
    _project_unit_ball_inplace(out, np.empty_like(out), np.empty(out.shape[1:], dtype=bool))
    return out


def _project_unit_ball_inplace(p: np.ndarray, scratch: np.ndarray, marked: np.ndarray) -> None:
    """``project_unit_ball`` applied to ``p`` itself, in the two forms of the
    module docstring; the sparse one gathers into ``scratch[1]``, dead once
    |p|^2 is formed. ``scratch``, of p's shape, and ``marked``, a bool
    array of a cell's shape, are overwritten; all three must be
    C-contiguous."""
    s = _squared_magnitude(p, scratch)
    np.less_equal(s, 1.0, out=marked)
    np.logical_not(marked, out=marked)
    count = np.count_nonzero(marked)
    if count > marked.size // 8:
        np.sqrt(s, out=s)
        np.maximum(s, 1.0, out=s)
        p /= s
    elif count:
        cells = np.flatnonzero(marked)
        dead = _flat(scratch[1])
        mag, part = dead[:count], dead[count : 2 * count]
        # mode="clip" gathers into ``out`` itself, where "raise" buffers it
        np.take(_flat(s), cells, out=mag, mode="clip")
        np.sqrt(mag, out=mag)
        for component in p:
            flat = _flat(component)
            np.take(flat, cells, out=part, mode="clip")
            part /= mag
            flat[cells] = part


def energy(u: RadialField, A: AbelMatrix, f: ProjectionField, lam: float) -> float:
    """Objective value E(u) = h^2 sum|Du| + (lam/2) ||Au - f||_{l2(V_h)}^2.

    The TV term is h * tv_seminorm(u)."""
    _check_size(A, u, f)
    g = np.empty((2,) + u.values.shape)
    return _energy(u.values, A.entries, f.values, lam, u.grid.h, g, np.empty_like(g[0]))


def _energy(u, a, f, lam: float, h: float, g: np.ndarray, resid: np.ndarray) -> float:
    """``energy`` of the arrays ``u``, ``a`` = A.entries and ``f``. ``g``,
    of shape (2,) + u.shape, and ``resid``, of u's shape, must be
    C-contiguous; both are overwritten."""
    np.matmul(a, u, out=resid)
    resid -= f
    np.square(resid, out=resid)
    return h * (h * _tv_sum(u, g)) + 0.5 * lam * h * h * float(resid.sum())


def _primal_operator(A: AbelMatrix, tau: float, lam: float) -> np.ndarray:
    """The inverse K = (I + tau*lam*A^T A)^(-1) of the primal system."""
    m = A.entries.T @ A.entries
    m *= tau * lam
    m.reshape(-1)[:: A.n + 1] += 1.0
    return np.linalg.inv(m)


def solve_tv(A: AbelMatrix, f: ProjectionField, params: SolverParams) -> SolveResult:
    """Run the primal-dual iteration for exactly ``params.max_iter`` steps,
    starting from zero primal and dual variables.

    Parameters
    ----------
    A : AbelMatrix
    f : ProjectionField
        Measured data; shapes must agree with ``A``.
    params : SolverParams

    Returns
    -------
    SolveResult
        Minimizer estimate, final dual variable (per-cell magnitude <= 1),
        and the energy trace sampled every ``record_every`` iterations plus
        the final iteration.

    Raises
    ------
    SolverDivergedError
        At the first record point whose iterate is non-finite, named.
    """
    _check_size(A, f)
    u, v, trace = _iterate(A, f, params)
    return SolveResult(
        u_star=RadialField(f.grid, u),
        dual=DualField(f.grid, v),
        energy_trace=tuple(trace),
        final_energy=trace[-1][1],
        iterations_run=trace[-1][0],
    )


def _iterate(A: AbelMatrix, f: ProjectionField, params: SolverParams) -> tuple[np.ndarray, np.ndarray, list]:
    """The iteration of ``solve_tv``: the final u and v and the energy
    trace. Every other buffer, and K, is released when it returns."""
    tau, gamma, lam = params.tau, params.gamma, params.lam
    # the mask is made before K: made after it, it raised the peak RSS of
    # `abeltv run` at n_r = 128 by up to 0.6 MB (heap fragmentation)
    marked = np.empty(f.values.shape, dtype=bool)
    K = _primal_operator(A, tau, lam)
    c = K @ (tau * lam * (A.entries.T @ f.values))

    # wq holds w until the gradient has read it, then q (module docstring)
    u, u_new, wq = np.zeros_like(c), np.empty_like(c), np.zeros_like(c)
    v, p = np.zeros((2,) + c.shape), np.empty((2,) + c.shape)

    grad, div = _gradient_step(wq, p), _divergence_step(v, wq, p[0])
    trace: list[tuple[int, float]] = []
    for it in range(1, params.max_iter + 1):
        # p = gamma * D w, then v + p projected onto the unit ball is the new v
        grad()
        p *= gamma
        v += p
        _project_unit_ball_inplace(v, p, marked)
        # q = u + tau * D* v, then u_new = K q + c
        div()
        wq *= tau
        wq += u
        np.matmul(K, wq, out=u_new)
        u_new += c
        # w = 2 u_new - u, and u_new is the new u
        np.multiply(u_new, 2.0, out=wq)
        wq -= u
        u, u_new = u_new, u
        if it % params.record_every == 0 or it == params.max_iter:
            if not np.isfinite(u).all():
                raise SolverDivergedError(it)
            trace.append((it, _energy(u, A.entries, f.values, lam, f.grid.h, p, u_new)))
    return u, v, trace


def solve_onion_peeling(A: AbelMatrix, f: ProjectionField) -> RadialField:
    """Unregularized inversion by back-substitution on the triangular system.

    ``np.linalg.solve`` is that back-substitution: A is upper triangular
    with a positive diagonal and exact zeros below it, so partial pivoting
    swaps no rows, the LU factors are L = I and U = A exactly, and what is
    left is the triangular ``trsm`` solve with U, the same result bit for
    bit as a dedicated triangular solver (numpy alone, no scipy import).

    Exact (to rounding) on consistent data; on noisy data it amplifies the
    noise through the ill-conditioned triangular solve, which is the
    behaviour the TV-regularized solver exists to avoid.
    """
    _check_size(A, f)
    u = np.linalg.solve(A.entries, f.values)
    return RadialField(f.grid, u)
