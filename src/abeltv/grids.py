"""Grid conventions and field containers for axisymmetric inversion.

Conventions
-----------
All computations live on the unit cylinder, on one grid type, ``GridRZ``,
the cylindrical (r, z) grid. The radial axis [0, 1] is split into ``n_r``
cells of width ``h = 1/n_r``; cell ``j`` (1-based) occupies ``[(j-1)h, jh]``
and measurement abscissae sit at the left cell edges, ``x_i = (i-1)h``. The
axial axis covers [-1, 1] with the same spacing, giving ``n_z = 2*n_r + 1``
samples. The revolved Cartesian lattice is fixed by n_r too: ``revolve``
samples x, y in [-1, 1] and z in [0, 1] at spacing h, an array of shape
(2n_r+1, 2n_r+1, n_r+1).

Every number a record holds follows one of two value rules, whose
ValueError names the field: ``_integer`` for counts (an integral int or
float, numpy's included, stored as an int, within its bounds) and ``_real``
for the rest (an int or a float, numpy's included, stored as a finite float).

Field containers are immutable after construction and safe to share across
threads; like every record holding arrays, they compare by identity and
hash. They round-trip bit-exactly through CSV, the only field format:
``to_csv`` writes each value's shortest round-trip decimal form, the bytes
``repr`` gives, made a few rows at a time by the numpy kernel in
``_shortest``; ``from_csv`` reads the rows with ``np.loadtxt``, whose C
parser rounds correctly like ``float``. ``from_csv`` raises ValueError
naming the file for a header that lacks, garbles or contradicts n_r, n_z
or h, no rows, a ragged row, a token that is not a finite number, or a
wrong row count.
"""

from __future__ import annotations

import contextlib
import math
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridRZ",
    "RadialField",
    "ProjectionField",
    "DualField",
    "make_grids",
    "revolve",
]


# values rendered at a time by to_csv: the kernel's temporaries peak near
# 1.6 MiB on a dense chunk, under the 2 MiB that test_csv_written_in_chunks allows
_CSV_CHUNK = 8192

# the largest n_r a run can hold: A and K are n_r^2 doubles each and a solve
# about eight (n_r, 2 n_r + 1) arrays, some 18 n_r^2 doubles in all, 576 MiB
# at 2048 (under 1 GiB); the benchmark's kernel table builds GridRZ(512)
_MAX_N_R = 2048


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def _shown(value) -> str:
    """``repr(value)``, but never raising: an int past str's digit limit shows its bit length."""
    try:
        return repr(value)
    except Exception:
        return f"an int of {value.bit_length()} bits" if isinstance(value, int) else object.__repr__(value)


@contextlib.contextmanager
def _prefixed(label):
    """Re-raise a ValueError from the block as one that names ``label`` first: ``<label>: <message>``."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{label}: {exc}") from None


def _integer(value, name: str, low: int | None = None, high: int | None = None) -> int:
    """An integral int or float, numpy's included, as an int in [``low``,
    ``high``]; anything else, a bool included, raises ValueError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)) or (
        not abs(value) < math.inf or value % 1  # inf and nan fail before the %, which warns on numpy's
    ):
        raise ValueError(f"{name} must be an integer, got {_shown(value)}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {_shown(int(value))}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be <= {high}, got {_shown(int(value))}")
    return int(value)


def _real(value, name: str) -> float:
    """An int or a float, numpy scalars included, as a finite float; a bool,
    anything else or a non-finite value raises ValueError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a number, got {_shown(value)}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {_shown(value)}")
    return number


@dataclass(frozen=True)
class GridRZ:
    """Cylindrical (r, z) grid of ``n_r`` radial cells, 2 to ``_MAX_N_R``; n_z and h derive from it."""

    n_r: int

    def __post_init__(self):
        object.__setattr__(self, "n_r", _integer(self.n_r, "n_r", 2, _MAX_N_R))

    @property
    def n_z(self) -> int:
        return 2 * self.n_r + 1

    @property
    def h(self) -> float:
        return 1.0 / self.n_r

    @property
    def x(self) -> np.ndarray:
        """Measurement abscissae x_i = (i-1)h, i = 1..n_r (left cell edges)."""
        return np.arange(self.n_r) * self.h

    @property
    def r_centers(self) -> np.ndarray:
        """Radial cell midpoints (j - 1/2)h."""
        return (np.arange(self.n_r) + 0.5) * self.h

    @property
    def r_edges(self) -> np.ndarray:
        """Radial cell edges 0, h, 2h, ..., 1 (length n_r + 1)."""
        return np.arange(self.n_r + 1) * self.h

    @property
    def z(self) -> np.ndarray:
        """Axial samples -1, -1+h, ..., 1 (length n_z)."""
        return -1.0 + np.arange(self.n_z) * self.h


def make_grids(n_r: int) -> tuple[GridRZ, GridRZ]:
    """``GridRZ(n_r)``, returned twice: kept only for the benchmark's call
    shape, which unpacks a pair, until the benchmark drops it (ROADMAP item 3)."""
    grid = GridRZ(n_r)
    return grid, grid


@dataclass(frozen=True, eq=False)
class _Field2D:
    """Shared machinery for field containers on a GridRZ.

    ``values`` has shape ``_lead + (n_r, n_z)``; subclasses with a leading
    component axis set ``_lead``. CSV rows run over that shape flattened to
    (-1, n_z), so components follow one another.
    """

    grid: GridRZ
    values: np.ndarray

    _lead = ()

    def __post_init__(self):
        vals = _freeze(self.values)
        shape = self._lead + (self.grid.n_r, self.grid.n_z)
        if vals.shape != shape:
            raise ValueError(f"values shape {vals.shape} does not match {shape}")
        if not np.isfinite(vals).all():
            raise ValueError("field values must all be finite")
        object.__setattr__(self, "values", vals)

    # -- serialization ----------------------------------------------------

    def to_csv(self, path) -> None:
        """Write ``# grid ...`` header plus one comma-separated line per row."""
        with open(path, "wb") as fh:
            fh.writelines(self._csv())

    def _csv(self):
        """``to_csv``'s bytes: the header, then a few whole rows at a time."""
        from ._shortest import format_rows  # here, so that `import abeltv` does not compile it

        g = self.grid
        rows = self.values.reshape(-1, g.n_z)
        step = max(1, _CSV_CHUNK // g.n_z)
        yield f"# grid n_r={g.n_r} n_z={g.n_z} h={g.h!r}\n".encode()
        for start in range(0, len(rows), step):
            yield format_rows(rows[start : start + step])

    @classmethod
    def from_csv(cls, path):
        """Read a field that ``to_csv`` wrote; the module docstring lists the
        errors."""
        with _prefixed(path):
            with open(path) as fh:
                header = fh.readline()
                lines = [line for line in fh if line.strip()]
            fields = re.match(r"# grid n_r=(\S+) n_z=(\S+) h=(\S+)$", header)
            if fields is None:
                raise ValueError(f"header {header.strip()!r} is not '# grid n_r=<n_r> n_z=<n_z> h=<h>'")
            grid = GridRZ(int(fields[1]))
            if int(fields[2]) != grid.n_z or float(fields[3]) != grid.h:
                raise ValueError(f"header {header.strip()!r} disagrees with n_r")
            if not lines:  # checked here: loadtxt would warn, then return no rows
                raise ValueError("no rows after the header")
            rows = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
            # the rows run over the leading axes too; the field checks the shape
            return cls(grid, rows.reshape(cls._lead + (-1, rows.shape[1])))


class RadialField(_Field2D):
    """Sampled axisymmetric density u(r_j, z_k) on a GridRZ.

    ``values[j, k]`` is the density on radial cell j at axial sample k.
    Ground-truth phantoms additionally satisfy values >= 0 with the
    outermost radial cell identically zero (support inside the open
    cylinder); those invariants are established by the phantom rasterizer,
    not enforced here, since solver outputs may dip slightly negative.
    """


class ProjectionField(_Field2D):
    """Sampled line-of-sight data f(x_i, z_k) on a GridRZ."""


class DualField(_Field2D):
    """Per-cell 2-vector dual variable of the primal-dual iteration.

    ``values`` has shape (2, n_r, n_z): component 0 is the radial-difference
    direction, component 1 the axial-difference direction; CSV holds the
    component-0 rows followed by the component-1 rows. After any
    projection step the per-cell Euclidean magnitude is at most 1, which
    the solver's projection guarantees.
    """

    _lead = (2,)


def revolve(u: RadialField, g3: GridRZ) -> np.ndarray:
    """Sample an (r, z) field on the revolved Cartesian grid.

    The output at (x_i, y_j, z_k) equals the field value on the radial cell
    containing r = sqrt(x_i^2 + y_j^2) (piecewise-constant lookup), and 0
    for r >= 1. The Cartesian z grid covers [0, 1] and reads the matching
    upper axial rows of the (r, z) field. Linear in the field values.

    Parameters
    ----------
    u : RadialField
    g3 : GridRZ
        Must equal ``u.grid``, else ValueError; kept only for the benchmark's
        call shape, until the benchmark drops it (ROADMAP item 3).

    Returns
    -------
    ndarray of shape (2n+1, 2n+1, n+1), n = ``u.grid.n_r``
    """
    _check_matched(u.grid, g3)
    n = u.grid.n_r
    inside, cell = _lattice_cells(n)
    # Axial samples z_k = k*h correspond to rows n..2n of the (r, z) field.
    upper = u.values[:, n:]
    return np.where(inside[:, :, None], upper[cell, :], 0.0)


def _lattice_cells(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``_radial_cells`` of every (x, y) point of the revolved lattice of
    ``GridRZ(n)``; shape (2n+1, 2n+1) each."""
    a = np.arange(-n, n + 1, dtype=np.int64)
    return _radial_cells(a[:, None] ** 2 + a[None, :] ** 2, n)


def _radial_cells(s: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Whether lattice points with s = a^2 + b^2 = (r/h)^2 lie inside r < 1,
    and their radial cell floor(r/h), clipped to n - 1. Computed on the
    integers s, which is exact: inside is s < n^2 and floor(sqrt(s)) is
    exact for s < 2^52."""
    return s < n * n, np.minimum(np.sqrt(s).astype(np.int64), n - 1)


def _lattice_cell_counts(n: int) -> np.ndarray:
    """Number of (x, y) points of the revolved lattice of ``GridRZ(n)`` that
    ``revolve`` reads from each radial cell (length n). Counts the quadrant
    a >= 1, b >= 0 of lattice indices: its four rotations by 90 degrees tile
    the lattice without the origin and keep a^2 + b^2, so each count is 4
    times the quadrant's, plus the origin in cell 0."""
    a = np.arange(n, dtype=np.int64)
    inside, cell = _radial_cells(a[1:, None] ** 2 + a[None, :] ** 2, n)
    counts = 4 * np.bincount(cell[inside], minlength=n)
    counts[0] += 1
    return counts


def _check_matched(grid: GridRZ, g3: GridRZ) -> None:
    if g3 != grid:
        raise ValueError(f"grid mismatch: g3 is {_shown(g3)}, the field's grid is {_shown(grid)}")
