"""Discrete Abel transform (onion peeling) and difference operators.

The onion-peeling matrix assumes the density is constant on each radial
cell, which makes the forward projection exact for cell-wise-constant
fields and the matrix upper triangular with positive diagonal.

``gradient`` and ``divergence`` are one-sided difference operators with the
zero-row/zero-column boundary convention that makes them exact negative
adjoints of each other: <grad u, p> = -<u, div p> for every u, p.

The public operations are pure functions of immutable inputs. The stencils
of ``gradient`` and ``divergence`` are written once, in private bodies that
fill a caller's buffer; the public functions allocate and call them, and
the solver calls them directly on buffers it allocates once per solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import GridRZ, ProjectionField, RadialField

__all__ = [
    "AbelMatrix",
    "build_abel_matrix",
    "apply_abel",
    "apply_abel_transpose",
    "gradient",
    "divergence",
]


@dataclass(frozen=True)
class AbelMatrix:
    """Dense upper-triangular onion-peeling discretization, size n x n.

    Row i holds the chord-length weights of the radial cells crossed by the
    line of sight at x_i = (i-1)h; row sums telescope to the full chord
    length 2*sqrt(1 - x_i^2). Stored dense.
    """

    n: int
    h: float
    entries: np.ndarray

    def __post_init__(self):
        ent = np.array(self.entries, dtype=float)
        if ent.shape != (self.n, self.n):
            raise ValueError(f"entries shape {ent.shape} != ({self.n}, {self.n})")
        ent.setflags(write=False)
        object.__setattr__(self, "entries", ent)

    def row_sums(self) -> np.ndarray:
        return self.entries.sum(axis=1)


def build_abel_matrix(g: GridRZ) -> AbelMatrix:
    """Onion-peeling matrix for the grid's cell/abscissa convention.

    Entry (i, j), 1-based, is the length of the chord at height x_i = (i-1)h
    crossing radial cell j = [(j-1)h, jh], doubled for the two symmetric
    halves:

        2 * (sqrt((jh)^2 - x_i^2) - sqrt(((j-1)h)^2 - x_i^2))   for j >= i

    and 0 below the diagonal.
    """
    n, h = g.n_r, g.h
    x2 = (np.arange(n)[:, None] * h) ** 2
    edges2 = (np.arange(n + 1) * h) ** 2
    outer = np.sqrt(np.maximum(edges2[None, 1:] - x2, 0.0))
    inner = np.sqrt(np.maximum(edges2[None, :-1] - x2, 0.0))
    entries = 2.0 * np.triu(outer - inner)
    return AbelMatrix(n=n, h=h, entries=entries)


def apply_abel(A: AbelMatrix, u: RadialField) -> ProjectionField:
    """Forward projection f = A u, applied independently per axial column."""
    if A.n != u.grid.n_r:
        raise ValueError(f"matrix size {A.n} != field n_r {u.grid.n_r}")
    return ProjectionField(u.grid, A.entries @ u.values)


def apply_abel_transpose(A: AbelMatrix, f: ProjectionField) -> np.ndarray:
    """Exact transpose action A^T f per axial column (adjoint of apply_abel)."""
    if A.n != f.grid.n_r:
        raise ValueError(f"matrix size {A.n} != field n_r {f.grid.n_r}")
    return A.entries.T @ f.values


def _values_and_h(u, h):
    if isinstance(u, RadialField):
        return u.values, u.grid.h
    if h is None:
        raise ValueError("h is required when passing a bare array")
    return np.asarray(u, dtype=float), float(h)


def gradient(u, h: float | None = None) -> np.ndarray:
    """Forward-difference gradient, divided by the spacing.

    Component 0 differences along the radial index with a zero last row;
    component 1 along the axial index with a zero last column.

    Parameters
    ----------
    u : RadialField or ndarray
        Field to differentiate. For a bare array, ``h`` must be given
        (pass ``h=1.0`` for plain per-cell differences).

    Returns
    -------
    ndarray of shape (2, n_r, n_z)
    """
    vals, h = _values_and_h(u, h)
    g = np.empty((2,) + vals.shape)
    _gradient_into(vals, g)
    g /= h
    return g


def _gradient_into(u: np.ndarray, out: np.ndarray) -> None:
    """Plain per-cell forward differences of ``u`` written into ``out``,
    shape (2,) + u.shape, with the zero last row/column of ``gradient``."""
    np.subtract(u[1:, :], u[:-1, :], out=out[0, :-1, :])
    out[0, -1, :] = 0.0
    np.subtract(u[:, 1:], u[:, :-1], out=out[1, :, :-1])
    out[1, :, -1] = 0.0


def divergence(p, h: float | None = None) -> np.ndarray:
    """Backward-difference divergence, the negative adjoint of ``gradient``.

    Accepts the (2, n_r, n_z) stacked pair produced by ``gradient`` (or a
    DualField's ``values``). The boundary cases mirror the gradient's zero
    rows: the first index keeps p itself, the last index keeps -p from the
    previous cell, so the last row/column of p never enters.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 3 or p.shape[0] != 2:
        raise ValueError(f"expected shape (2, n_r, n_z), got {p.shape}")
    if h is None:
        raise ValueError("h is required")
    d = np.empty(p.shape[1:])
    _divergence_into(p, d, np.empty(p.shape[1:]))
    d /= float(h)
    return d


def _divergence_into(p: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """Plain per-cell divergence of the stacked pair ``p`` written into
    ``out``; ``scratch`` has the shape of ``out`` and is overwritten."""
    p1, p2 = p[0], p[1]
    # accumulate onto zeros in this order: it fixes every bit of the
    # result, signed zeros included
    out.fill(0.0)
    out[0, :] += p1[0, :]
    np.subtract(p1[1:-1, :], p1[:-2, :], out=scratch[1:-1, :])
    out[1:-1, :] += scratch[1:-1, :]
    out[-1, :] -= p1[-2, :]
    out[:, 0] += p2[:, 0]
    np.subtract(p2[:, 1:-1], p2[:, :-2], out=scratch[:, 1:-1])
    out[:, 1:-1] += scratch[:, 1:-1]
    out[:, -1] -= p2[:, -2]
