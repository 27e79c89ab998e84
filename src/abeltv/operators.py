"""Discrete Abel transform (onion peeling) and difference operators.

The onion-peeling matrix assumes the density is constant on each radial
cell, which makes the forward projection exact for cell-wise-constant
fields and the matrix upper triangular with positive diagonal.

``gradient`` and ``divergence`` are one-sided difference operators with the
zero-row/zero-column boundary convention that makes them exact negative
adjoints of each other: <grad u, p> = -<u, div p> for every u, p.

The public operations are pure functions of immutable inputs; ``AbelMatrix``
is its entries alone and, like the fields, compares by identity. The
stencils of ``gradient`` and ``divergence`` are written once, as private
builders that take an input and an output buffer, make every view of them
the stencil reads or writes, and return a step that runs the stencil on
whatever the buffers hold when it is called. The public functions build a
step on buffers they allocate and run it once; the solver builds its steps
once per solve and runs them every iteration. Every full-array pass of a
step runs over contiguous memory, so the builders require C-contiguous
buffers, input and output, and raise on any other layout rather than bind
a copy; the public functions accept inputs of any layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import GridRZ, ProjectionField, RadialField, _freeze

__all__ = [
    "AbelMatrix",
    "build_abel_matrix",
    "apply_abel",
    "gradient",
    "divergence",
]


@dataclass(frozen=True, eq=False)
class AbelMatrix:
    """Dense upper-triangular onion-peeling discretization, size n x n.

    Row i holds the chord-length weights of the radial cells crossed by the
    line of sight at x_i = ``GridRZ.x[i]``; row sums telescope to the full
    chord length 2*sqrt(1 - x_i^2). Stored dense and square.
    """

    entries: np.ndarray

    def __post_init__(self):
        ent = _freeze(self.entries)
        if ent.ndim != 2 or ent.shape[0] != ent.shape[1]:
            raise ValueError(f"entries shape {ent.shape} is not square")
        object.__setattr__(self, "entries", ent)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def build_abel_matrix(g: GridRZ) -> AbelMatrix:
    """Onion-peeling matrix for the grid's cell/abscissa convention.

    Entry (i, j) is the length of the chord at height x_i = ``g.x[i]``
    crossing radial cell j, from e_j to e_(j+1) (``g.r_edges``), doubled
    for the two symmetric halves:

        2 * (sqrt(e_(j+1)^2 - x_i^2) - sqrt(e_j^2 - x_i^2))   for j >= i

    and 0 below the diagonal.
    """
    x2 = g.x[:, None] ** 2
    edges2 = g.r_edges**2
    outer = np.sqrt(np.maximum(edges2[None, 1:] - x2, 0.0))
    inner = np.sqrt(np.maximum(edges2[None, :-1] - x2, 0.0))
    entries = 2.0 * np.triu(outer - inner)
    return AbelMatrix(entries)


def apply_abel(A: AbelMatrix, u: RadialField) -> ProjectionField:
    """Forward projection f = A u, applied independently per axial column."""
    _check_size(A, u)
    return ProjectionField(u.grid, A.entries @ u.values)


def _check_size(A: AbelMatrix, *fields) -> None:
    """Raise ValueError naming both sizes unless every field's n_r is A.n."""
    for field in fields:
        if field.grid.n_r != A.n:
            raise ValueError(f"matrix size {A.n} != field n_r {field.grid.n_r}")


def gradient(u: np.ndarray, h: float) -> np.ndarray:
    """Forward-difference gradient of the (n_r, n_z) array ``u``, divided
    by the spacing ``h`` (pass ``h=1.0`` for plain per-cell differences).

    Component 0 differences along the radial index with a zero last row;
    component 1 along the axial index with a zero last column. Returns
    shape (2, n_r, n_z).
    """
    u = np.ascontiguousarray(u, dtype=float)
    g = np.empty((2,) + u.shape)
    _gradient_step(u, g)()
    g /= h
    return g


def _gradient_step(u: np.ndarray, out: np.ndarray):
    """The step that writes the plain per-cell forward differences of
    ``u`` into ``out``, shape (2,) + u.shape, with the zero last row/column
    of ``gradient``. Both must be C-contiguous: the axial differences are
    one pass over the raveled rows, and zeroing the last column clears the
    entries that straddle two rows."""
    uf, axial = _flat(u), _flat(out[1])
    u_hi, u_lo, radial, last_row = u[1:], u[:-1], out[0, :-1], out[0, -1]
    uf_hi, uf_lo, axial_head, last_col = uf[1:], uf[:-1], axial[:-1], out[1, :, -1]

    def step() -> None:
        np.subtract(u_hi, u_lo, out=radial)
        last_row.fill(0.0)
        np.subtract(uf_hi, uf_lo, out=axial_head)
        last_col.fill(0.0)

    return step


def divergence(p: np.ndarray, h: float) -> np.ndarray:
    """Backward-difference divergence, the negative adjoint of ``gradient``.

    Takes the (2, n_r, n_z) stacked pair produced by ``gradient`` (or a
    DualField's ``values``) and the spacing ``h``. The boundary cases
    mirror the gradient's zero rows: the first index keeps p itself, the
    last index keeps -p from the previous cell, so the last row/column of
    p never enters.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 3 or p.shape[0] != 2 or min(p.shape[1:]) < 2:
        raise ValueError(f"expected shape (2, n_r, n_z) with n_r, n_z >= 2, got {p.shape}")
    d = np.empty(p.shape[1:])
    _divergence_step(np.ascontiguousarray(p), d, np.empty(p.shape[1:]))()
    d /= h
    return d


def _divergence_step(p: np.ndarray, out: np.ndarray, scratch: np.ndarray):
    """The step that writes the plain per-cell divergence of the stacked
    pair ``p`` (n_r, n_z >= 2) into ``out``. ``p``, ``out`` and ``scratch``,
    the last two of the same shape, must be C-contiguous; ``scratch`` is
    overwritten. The radial part goes into ``out``, the axial part into
    ``scratch`` in one pass over the raveled rows (setting the first column
    clears the entries that straddle two rows), and ``scratch`` is added."""
    flat_out, flat_scratch = _flat(out), _flat(scratch)
    p1, p2 = p[0], p[1]
    p2f = _flat(p2)
    p1_hi, p1_lo, p1_first, p1_before_last = p1[1:], p1[:-1], p1[0], p1[-2]
    out_tail, out_first, out_last = out[1:], out[0], out[-1]
    p2f_hi, p2f_lo, p2_first, p2_before_last = p2f[1:], p2f[:-1], p2[:, 0], p2[:, -2]
    scratch_tail, scratch_first, scratch_last = flat_scratch[1:], scratch[:, 0], scratch[:, -1]

    def step() -> None:
        np.subtract(p1_hi, p1_lo, out=out_tail)
        np.copyto(out_first, p1_first)
        np.negative(p1_before_last, out=out_last)
        np.subtract(p2f_hi, p2f_lo, out=scratch_tail)
        np.copyto(scratch_first, p2_first)
        np.negative(p2_before_last, out=scratch_last)
        np.add(flat_out, flat_scratch, out=flat_out)

    return step


def _squared_magnitude(p: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Per-cell squared Euclidean magnitude p[0]^2 + p[1]^2 of the stacked
    pair ``p``, computed in ``scratch`` (p's shape, overwritten; it may be
    ``p`` itself). Returns the view ``scratch[0]`` that holds it; the
    values in ``scratch[1]`` are dead."""
    np.square(p, out=scratch)
    s = scratch[0]
    s += scratch[1]
    return s


def _flat(a: np.ndarray) -> np.ndarray:
    """The 1-D view of the C-contiguous buffer ``a``; any other layout
    raises, so that no step binds a copy."""
    if not a.flags.c_contiguous:
        raise ValueError(f"buffer of shape {a.shape} is not C-contiguous")
    return a.reshape(-1)
