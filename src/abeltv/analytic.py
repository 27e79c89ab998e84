"""Continuous transforms, closed-form test families, and stability bounds.

The two integral transforms of interest, for functions supported in [0, 1):

    (J v)(x) = pi^(-1/2) * integral_x^1 v(r) / sqrt(r - x) dr
    (A u)(x) = 2 * integral_x^1 u(r) r / sqrt(r^2 - x^2) dr

related by (A u)(x) = sqrt(pi) * (J v)(x^2) with v(r^2) = u(r).

Quadrature strategy: ``j_transform`` removes the kernel singularity of a
callable v at r = x analytically, after which one fixed rule, ``_panel``,
integrates each interval between knots; callers must declare every
discontinuity or singular point of v as a breakpoint, so that a panel ends
there. ``abel_transform`` is that quadrature through the identity above.
For piecewise-constant profiles J v has one closed form, written for stacks
of profiles, which ``j_transform`` returns. ``j_norms`` and
``bound_ratios`` take the L1 and L2 norms of J v in closed form for a
profile whose values are all >= 0 (``_j_norms_closed``; within 1e-14 of the
quadrature on the 1000-profile suite). |J v| of a profile with a negative
value can change sign, so its norms come from ``_panel`` on every piece of
the closed form of J v, as do those of a nonnegative profile whose jumps
cancel too much for the closed form; that quadrature loses digits on pieces
thinner than about 1e-4 (``_j_norms_quadrature``). ``random_step_profiles``
yields step profiles as ``(edges, values)`` array rows, and
``bound_ratios`` takes them, grouped by piece count, one pass per small
batch: a random suite costs one pass per batch instead of one per panel of
every profile, the memory held at once stays bounded, and no
``PiecewiseConstantProfile`` is built per trial (the batch pass takes a
batch's piece widths once, and checks the profile invariants and forms the
norms of v from them).

``verify_bounds`` runs the whole suite that ``abeltv verify-bounds`` prints
and maps each check's name to its ratio, which must stay <= 1.

Everything here is a pure function; safe to call concurrently.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .grids import _freeze, _integer, _real

__all__ = [
    "PiecewiseConstantProfile",
    "IndicatorFamily",
    "C_L2_2D",
    "C_L1_2D",
    "YOUNG_L2",
    "YOUNG_L1",
    "j_transform",
    "abel_transform",
    "j_norms",
    "indicator_family",
    "stieltjes_inverse",
    "random_step_profiles",
    "bound_ratios",
    "verify_bounds",
]

_SQRT_PI = math.sqrt(math.pi)
# 96-node Gauss-Legendre rule on [-1, 1] for _panel, shipped as data: its nodes in
# (0, 1) and their weights, mirrored. np.polynomial.legendre.leggauss(96) gives these
# bits (it makes its rule exactly symmetric), at the cost of loading numpy.polynomial
# and solving a 96 x 96 eigenproblem in every process
_GL_HALF_NODES = np.array([
    0.016276744849602967, 0.04881298513604974, 0.08129749546442555, 0.11369585011066592,
    0.14597371465489695, 0.17809688236761861, 0.2100313104605672, 0.24174315616384,
    0.27319881259104917, 0.30436494435449635, 0.3352085228926254, 0.3656968614723136,
    0.3957976498289086, 0.42547898840730053, 0.454709422167743, 0.48345797392059636,
    0.5116941771546677, 0.5393881083243575, 0.5665104185613972, 0.593032364777572,
    0.6189258401254686, 0.6441634037849671, 0.6687183100439161, 0.6925645366421715,
    0.7156768123489676, 0.7380306437444001, 0.7596023411766475, 0.7803690438674332,
    0.8003087441391408, 0.8194003107379316, 0.8376235112281871, 0.8549590334346014,
    0.8713885059092965, 0.8868945174024204, 0.9014606353158523, 0.9150714231208981,
    0.9277124567223087, 0.9393703397527552, 0.9500327177844377, 0.9596882914487426,
    0.9683268284632642, 0.9759391745851365, 0.9825172635630147, 0.9880541263296237,
    0.9925439003237626, 0.9959818429872093, 0.9983643758631817, 0.9996895038832307,
])
_GL_HALF_WEIGHTS = np.array([
    0.03255061449236328, 0.03251611871386895, 0.0324471637140644, 0.03234382256857602,
    0.03220620479403032, 0.032034456231992796, 0.03182875889441112, 0.03158933077072725,
    0.03131642559686141, 0.03101033258631393, 0.030671376123669266, 0.03029991542082777,
    0.029896344136328506, 0.029461089958168016, 0.02899461415055532, 0.028497411065085413,
    0.02797000761684837, 0.027412962726029232, 0.02682686672559185, 0.026212340735672593,
    0.025570036005349364, 0.024900633222483814, 0.02420484179236482, 0.023483399085926292,
    0.022737069658329466, 0.02196664443874457, 0.021172939892191354, 0.020356797154333365,
    0.019519081140145382, 0.01866067962741174, 0.017782502316045286, 0.016885479864245195,
    0.015970562902562345, 0.015038721026994927, 0.014090941772314894, 0.013128229566961646,
    0.012151604671088057, 0.01116210209983861, 0.010160770535008306, 0.009148671230783011,
    0.0081268769256983, 0.007096470791153821, 0.006058545504235195, 0.005014202742928604,
    0.003964554338444405, 0.0029107318179352943, 0.0018539607889441585, 0.0007967920655518723,
])
_GL_NODES = np.concatenate((-_GL_HALF_NODES[::-1], _GL_HALF_NODES))
_GL_WEIGHTS = np.concatenate((_GL_HALF_WEIGHTS[::-1], _GL_HALF_WEIGHTS))
# random_step_profiles draws 1.._MAX_PIECES nonzero pieces, jumps in (0, _BREAKPOINT_HIGH)
_MAX_PIECES = 8
_BREAKPOINT_HIGH = 0.95
# _j_norms_closed keeps a row's closed form while the magnitudes of its L2
# summands add up to at most this multiple of their sum, which bounds the
# rounding error; one of the 1000 profiles of seed 20240 exceeds it (3.4e3)
_CLOSED_CANCELLATION = 2.0**10

# Closed-form constants of the stability and convolution bounds:
# ||v||_L2 <= C_L2_2D ||v||_TV^(1/2) ||Jv||_L2^(1/2),
# ||v||_L1 <= C_L1_2D ||v||_TV^(1/3) ||Jv||_L1^(2/3),
# ||Jv||_L2 <= YOUNG_L2 ||v||_TV and ||Jv||_L1 <= YOUNG_L1 ||v||_TV.
C_L2_2D = 2.0 * math.pi ** (-0.25) * (1.0 + 1.0 / math.sqrt(3.0)) ** 0.5 * (3.0 - math.sqrt(2.0)) ** 0.5
C_L1_2D = 3.0 ** (4.0 / 3.0) * math.pi ** (-1.0 / 3.0) * (3.0 - math.sqrt(2.0)) ** (2.0 / 3.0)
YOUNG_L2 = math.sqrt(2.0 / math.pi)
YOUNG_L1 = 4.0 / (3.0 * _SQRT_PI)


@dataclass(frozen=True, eq=False)
class PiecewiseConstantProfile:
    """Step function on [0, 1): value ``values[m]`` on [b_m, b_{m+1}).

    ``breakpoints`` starts at 0, is strictly increasing and stays below 1;
    the final piece extends to 1. Test suites that rely on compact support
    in [0, 1) use profiles whose last value is 0; the lone exception kept
    representable is the full-width indicator (the k = 1 member of the
    indicator family), whose support closes at 1.
    """

    breakpoints: np.ndarray
    values: np.ndarray
    # piece edges including the terminal 1.0 (length pieces + 1)
    edges: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        bps, vals = _freeze(self.breakpoints), _freeze(self.values)
        if bps.ndim != 1 or vals.shape != bps.shape or len(bps) == 0:
            raise ValueError("breakpoints and values must be matching 1-D arrays")
        edges = _freeze(np.append(bps, 1.0))
        _check_steps(edges, np.diff(edges), vals)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "edges", edges)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        idx = np.clip(np.searchsorted(self.edges, r, side="right") - 1, 0, len(self.values) - 1)
        out = np.where((r >= 0.0) & (r < 1.0), self.values[idx], 0.0)
        return out if out.ndim else float(out)

    def norm_l1(self) -> float:
        return float(_norm_l1(np.diff(self.edges), self.values))

    def norm_l2(self) -> float:
        return float(_norm_l2(np.diff(self.edges), self.values))

    def tv(self) -> float:
        """Total variation on [0, infinity): interior jumps plus the closing
        jump to 0 at the support boundary."""
        return float(_tv(self.values))


# Invariants, norms and TV of step profiles, over the last axis of stacked
# ``edges`` (..., P + 1), ``widths`` = np.diff(edges) and ``values`` (..., P).


def _check_steps(edges: np.ndarray, widths: np.ndarray, values: np.ndarray) -> None:
    """Raise ValueError unless the edges rise strictly from 0 to 1 and the
    values are finite."""
    if not (
        (edges[..., 0] == 0.0).all()
        and (edges[..., -1] == 1.0).all()
        and (widths > 0.0).all()
        and np.isfinite(values).all()
    ):
        raise ValueError("step profiles need edges rising strictly from 0 to 1 and finite values")


def _norm_l1(widths: np.ndarray, values: np.ndarray) -> np.ndarray:
    return np.sum(np.abs(values) * widths, axis=-1)


def _norm_l2(widths: np.ndarray, values: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(values**2 * widths, axis=-1))


def _tv(values: np.ndarray) -> np.ndarray:
    return np.sum(np.abs(np.diff(values, axis=-1)), axis=-1) + np.abs(values[..., -1])


def _require_unit_interval(x: float) -> float:
    x = _real(x, "x")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"evaluation point must lie in [0, 1], got {x}")
    return x


def j_transform(v, x: float, breakpoints: Sequence[float] | None = None) -> float:
    """Half-order fractional integral (J v)(x) for x in [0, 1].

    Parameters
    ----------
    v : PiecewiseConstantProfile or callable
        Profiles are integrated in closed form (exact). A callable is
        integrated after the substitution r = x + t^2 by the panel rule of
        ``_panel``; it must accept scalars and vanish outside [0, 1).
    x : number in [0, 1], by ``grids._real`` (a bool or a string raises)
    breakpoints : sequence of float, optional
        Every discontinuity or singular point of a callable ``v`` in (x, 1),
        each ending a panel: a declared jump costs 1e-16 against the closed
        form, an undeclared one 1e-3 to 2e-2. Ignored for profiles.
    """
    x = _require_unit_interval(x)
    if isinstance(v, PiecewiseConstantProfile):
        return float(_j_steps(v.edges, v.values, np.array([x]))[0])
    knots = {0.0, math.sqrt(1.0 - x)}
    if breakpoints is not None:
        knots.update(math.sqrt(b - x) for b in breakpoints if x < b < 1.0)
    return 2.0 * _quad(lambda t: v(x + t * t), np.array(sorted(knots))) / _SQRT_PI


def abel_transform(u, x: float, breakpoints: Sequence[float] | None = None) -> float:
    """Line-of-sight projection (A u)(x) of a radial callable, x in [0, 1]:
    sqrt(pi) (J v)(x^2) with v(s) = u(sqrt(s)), by ``j_transform``'s
    quadrature. ``breakpoints`` lists every discontinuity or singular point
    of u in (x, 1).
    """
    x = _require_unit_interval(x)
    squares = None if breakpoints is None else [b * b for b in breakpoints if b > x]
    return _SQRT_PI * j_transform(lambda s: u(math.sqrt(s)), x * x, squares)


def _quad(fn, knots: np.ndarray) -> float:
    """Integral of the scalar callable fn from the first knot to the last,
    one ``_panel`` between consecutive knots; 0 for a single knot."""
    t, w = _panel(knots[:-1, None], knots[1:, None])
    return float(w.ravel() @ np.array([fn(ti) for ti in t.ravel().tolist()]))


def _panel(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights (..., 96) on the panels [a, b], ends (..., 1): the
    substitution t = b - s^2 makes a square-root end at b smooth for the
    96-node Gauss-Legendre rule in s over [0, sqrt(b - a)]."""
    smax = np.sqrt(b - a)
    s = 0.5 * smax * (_GL_NODES + 1.0)
    return b - s * s, 0.5 * smax * _GL_WEIGHTS * 2.0 * s  # jacobian of t = b - s^2


def _j_steps(edges: np.ndarray, values: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Closed form of (J v)(x) for a stack of step profiles, as the sum
    over the jumps of v: (J v)(x) = 2 pi^(-1/2) sum_k (v_(k-1) - v_k)
    sqrt(max(b_k - x, 0)), over the edges b_k > 0, with v = 0 past the
    last piece.

    Profile ``i`` (an index over the leading axes) has piece ``edges[i]``
    (P + 1) and ``values[i]`` (P); the result ``[i, n]`` is its transform
    at ``xs[i, n]`` >= 0.
    """
    roots = edges[..., 1:, None] - xs[..., None, :]
    np.maximum(roots, 0.0, out=roots)
    np.sqrt(roots, out=roots)
    falls = -np.diff(values, axis=-1, append=0.0)
    return 2.0 * (falls[..., None, :] @ roots)[..., 0, :] / _SQRT_PI


def j_norms(v: PiecewiseConstantProfile) -> tuple[float, float]:
    """(L1, L2) norms of J v over [0, 1] for a step profile: in closed form
    when every value is >= 0, by panel quadrature otherwise (see
    ``_j_norms_stacked``)."""
    l1, l2 = _j_norms_stacked(v.edges[None], v.values[None])
    return float(l1[0]), float(l2[0])


def _j_norms_stacked(edges: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(L1, L2) norms of J v over [0, 1] for a stack of B step profiles
    with equal piece counts (``edges`` (B, P + 1), ``values`` (B, P)).

    Each row takes one of two paths, chosen from its own values, so its
    norms never depend on the rows stacked with it. A row whose values are
    all >= 0 has J v >= 0 (J has a positive kernel), and both norms have
    closed forms, ``_j_norms_closed``. J v of a row with a negative value
    can change sign, so |J v| is integrated by ``_j_norms_quadrature``, as
    is a row whose closed form cancels too much.
    """
    l1, l2, closed = _j_norms_closed(edges, values)
    quadrature = ~closed
    if quadrature.any():
        l1[quadrature], l2[quadrature] = _j_norms_quadrature(edges[quadrature], values[quadrature])
    return l1, l2


def _j_norms_closed(edges: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(L1, L2) norms of J v by the closed forms for values >= 0, and the
    rows that they hold for: those with values >= 0 whose L2 is exact to
    rounding.

    ||J v||_L1 = 4 / (3 sqrt(pi)) sum_m v_m (e_(m+1)^(3/2) - e_m^(3/2)),
    a sum of nonnegative terms. With the jumps a_k = v_k - v_(k+1) at the
    edges b_k = e_(k+1) of ``_j_steps``, ||J v||_L2^2 = (4 / pi)
    sum_(j,k) a_j a_k I(b_j, b_k), where I(lo, hi) = integral_0^lo
    sqrt((lo - x) (hi - x)) dx is b^2 / 2 on the diagonal and, for lo < hi,
    (lo + hi) / 4 sqrt(lo hi) - (hi - lo)^2 / 4 artanh(sqrt(lo / hi)).
    Jumps of opposite sign cancel in that sum: a spike of width w high above
    its neighbours leaves w^2 of summands near 1 (a spike of width 1e-9 gave
    L2 = 0). So the L2 is exact only while the summands' magnitudes add up
    to at most ``_CLOSED_CANCELLATION`` times their sum.
    """
    powers = edges**1.5
    l1 = YOUNG_L1 * (values * (powers[:, 1:] - powers[:, :-1])).sum(axis=-1)
    b = edges[:, 1:]
    a = -np.diff(values, axis=-1, append=0.0)
    j, k = _pairs(b.shape[-1])
    lo, hi = b[:, j], b[:, k]
    # near - far is 4 I(lo, hi), and ||J v||_L2^2 = (2 / pi) half_square
    near = (lo + hi) * np.sqrt(lo * hi)
    far = np.square(hi - lo) * np.arctanh(np.sqrt(lo / hi))
    diagonal = np.square(a * b).sum(axis=-1)
    pairs = a[:, j] * a[:, k]
    half_square = diagonal + (pairs * (near - far)).sum(axis=-1)
    magnitude = diagonal + (np.abs(pairs) * near).sum(axis=-1)  # near >= far >= 0
    closed = (values >= 0.0).all(axis=-1) & (magnitude <= _CLOSED_CANCELLATION * half_square)
    # a half_square that cancels to below 0 fails the test above
    return l1, YOUNG_L2 * np.sqrt(np.maximum(half_square, 0.0)), closed


@functools.cache
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices (j, k), j < k, of the pairs among n edges."""
    return np.triu_indices(n, 1)


def _j_norms_quadrature(edges: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(L1, L2) norms of J v for stacked step profiles of any sign.

    J v is piecewise smooth with square-root behaviour at the right edge of
    each panel between consecutive breakpoints, which ``_panel`` makes
    smooth, but its fixed 96-node rule misses the sqrt(w)-wide feature
    that a jump at distance w leaves at a panel's end: for a unit spike of
    width w between zeros, its (L1, L2) relative errors are about 1e-13
    at w = 1e-4, (2e-8, 4e-6) at 1e-6 and (2e-5, 1.2e-2) at 1e-9. The
    nodes of all panels of a profile go through ``_j_steps`` in one pass.
    """
    x, w = _panel(edges[:, :-1, None], edges[:, 1:, None])
    g = _j_steps(edges, values, x.reshape(len(x), -1))
    w = w.reshape(len(w), -1)
    return np.sum(w * np.abs(g), axis=-1), np.sqrt(np.sum(w * g * g, axis=-1))


@dataclass(frozen=True, eq=False)
class IndicatorFamily:
    """The scaled-indicator test family v_k(r) = 1 on [0, 1/k].

    ``g`` is the closed form of J v_k and ``norms`` collects the exact norm
    values: keys v_l1, v_l2, v_tv, g_l1, g_l2.
    """

    profile: PiecewiseConstantProfile
    g: Callable[[np.ndarray], np.ndarray]
    norms: dict


def indicator_family(k: float) -> IndicatorFamily:
    """Closed-form data for the indicator family member at a number k >= 1 (``grids._real``).

    v_k is the indicator of [0, 1/k]; its transform is
    g_k(x) = 2 pi^(-1/2) (1/k - x)^(1/2) on [0, 1/k], with exact norms

        ||v_k||_L1 = 1/k         ||g_k||_L1 = (4 / (3 sqrt(pi))) k^(-3/2)
        ||v_k||_L2 = k^(-1/2)    ||g_k||_L2 = sqrt(2/pi) k^(-1)
        ||v_k'||_L1 = ||v_k||_TV = 1
    """
    k = _real(k, "k")
    if k < 1.0:
        raise ValueError(f"k must be >= 1, got {k}")
    if k == 1.0:
        profile = PiecewiseConstantProfile(np.array([0.0]), np.array([1.0]))
    else:
        profile = PiecewiseConstantProfile(np.array([0.0, 1.0 / k]), np.array([1.0, 0.0]))

    def g(x):
        x = np.asarray(x, dtype=float)
        out = 2.0 / _SQRT_PI * np.sqrt(np.maximum(1.0 / k - x, 0.0))
        return out if out.ndim else float(out)

    norms = {
        "v_l1": 1.0 / k,
        "v_l2": k**-0.5,
        "v_tv": 1.0,
        "g_l1": 4.0 / (3.0 * _SQRT_PI) * k**-1.5,
        "g_l2": math.sqrt(2.0 / math.pi) / k,
    }
    return IndicatorFamily(profile=profile, g=g, norms=norms)


def stieltjes_inverse(g: PiecewiseConstantProfile, r: float) -> float:
    """Explicit inversion of J for step data at a number r in [0, 1) (``grids._real``).

    For data g of bounded variation with support in [0, 1) and finite
    g(0) >= 0, the unique integrable solution of J v = g is the
    Lebesgue-Stieltjes integral

        v(r) = -pi^(-1/2) * integral_r^1 dg(x) / sqrt(x - r),

    which for step data reduces to the finite sum over jump locations
    a_m > r of -(jump size) / sqrt(a_m - r), scaled by pi^(-1/2).
    Returns 0 for r at or beyond the last jump.
    """
    if g.values[0] < 0.0:
        raise ValueError("step data must have finite nonnegative value at 0")
    if g.values[-1] != 0.0:
        raise ValueError("step data must be supported in [0, 1) (last value 0)")
    r = _real(r, "r")
    if not 0.0 <= r < 1.0:
        raise ValueError(f"r must lie in [0, 1), got {r}")
    locs, sizes = g.breakpoints[1:], np.diff(g.values)
    mask = locs > r
    if not mask.any():
        return 0.0
    return float(-np.sum(sizes[mask] / np.sqrt(locs[mask] - r)) / _SQRT_PI)


def random_step_profiles(trials: int, seed: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Seeded stream of random compactly supported step profiles, each an
    ``(edges, values)`` row; ``PiecewiseConstantProfile(edges[:-1], values)``
    is the same profile as an object.

    Each profile has a uniform piece count in {1.._MAX_PIECES}, jump
    locations uniform in (0, _BREAKPOINT_HIGH), values uniform in [0, 1] and
    a trailing zero piece, staying inside the hypotheses of the stability
    bounds (bounded, support in [0, 1)). ``trials`` is a count >= 1 and
    ``seed`` one >= 0 (``grids._integer``), both checked at the first draw.
    """
    trials = _integer(trials, "trials", 1)
    rng = np.random.default_rng(_integer(seed, "seed", 0))
    for _ in range(trials):
        pieces = int(rng.integers(1, _MAX_PIECES + 1))
        edges = np.zeros(pieces + 2)
        edges[-1] = 1.0
        bps = edges[1:-1]
        while True:
            bps[:] = rng.uniform(0.0, _BREAKPOINT_HIGH, pieces)
            bps.sort()
            # redraw unless 0 < b_1 < ... < b_pieces
            if (bps > edges[:-2]).all():
                break
        values = np.zeros(pieces + 1)
        values[:-1] = rng.uniform(0.0, 1.0, pieces)
        yield edges, values


def bound_ratios(rows: Iterable[tuple[np.ndarray, np.ndarray]]) -> dict:
    """Max observed left/right ratios of the four stability inequalities
    over step profiles given as ``(edges, values)`` rows, as
    ``random_step_profiles`` yields them.

    Keys: l2_product_bound, l1_product_bound, young_l2, young_l1, the names
    ``verify_bounds`` reports. Every value must be <= 1 for correct
    transforms; ratios above 1 indicate an implementation bug, not a
    failure of the (proven) bounds. Profiles with zero TV are
    skipped, and a product ratio whose transform norm is 0 is not formed.
    A row whose ``edges`` is not one entry longer than its ``values``, or
    that breaks the profile invariants, raises ValueError. Rows wait in one
    group per piece count P; a group is evaluated in one vectorised pass
    once it holds 2^10 / P^2 rows, which bounds the memory held at once:
    a row takes P^2 * 96 square roots of the quadrature at most.
    """
    worst = dict.fromkeys(("l2_product_bound", "l1_product_bound", "young_l2", "young_l1"), 0.0)
    pending: dict[int, list] = {}  # piece count -> rows not yet evaluated
    for edges, values in rows:
        pieces = len(values)
        if len(edges) != pieces + 1:
            raise ValueError(f"a row needs one more edge than values, got {len(edges)} and {pieces}")
        group = pending.setdefault(pieces, [])
        group.append((edges, values))
        if len(group) * pieces**2 >= 2**10:
            _update_worst(worst, group)
    for group in pending.values():
        if group:
            _update_worst(worst, group)
    return worst


def _update_worst(worst: dict, group: list) -> None:
    """Raise ``worst``'s ratios to the largest over ``group``, a list of
    ``(edges, values)`` rows of P pieces each, stacked (B, P + 1) and (B, P)
    and held to the invariants of ``PiecewiseConstantProfile``; ``group``
    is emptied."""
    edges = np.array([e for e, _ in group], dtype=float)
    values = np.array([v for _, v in group], dtype=float)
    group.clear()
    widths = np.diff(edges, axis=-1)
    _check_steps(edges, widths, values)
    tv = _tv(values)
    keep = tv != 0.0
    edges, widths, values, tv = edges[keep], widths[keep], values[keep], tv[keep]
    v_l1, v_l2 = _norm_l1(widths, values), _norm_l2(widths, values)
    g_l1, g_l2 = _j_norms_stacked(edges, values)
    l2 = g_l2 > 0.0
    l1 = g_l1 > 0.0
    ratios = {
        "l2_product_bound": v_l2[l2] / (C_L2_2D * np.sqrt(tv[l2]) * np.sqrt(g_l2[l2])),
        "l1_product_bound": v_l1[l1] / (C_L1_2D * tv[l1] ** (1.0 / 3.0) * g_l1[l1] ** (2.0 / 3.0)),
        "young_l2": g_l2 / (YOUNG_L2 * tv),
        "young_l1": g_l1 / (YOUNG_L1 * tv),
    }
    for key, r in ratios.items():
        worst[key] = max(worst[key], float(np.max(r, initial=0.0)))


def verify_bounds(seed: int, trials: int) -> dict[str, float]:
    """Run the analytic inequality and decay-rate suites; map each check's
    name to its ratio, in report order.

    Each check is normalized so the reported ratio must be <= 1:
    inequality checks report the max left/right ratio over the seeded
    random step profiles; decay-slope checks report |slope - target| over
    the 0.02 tolerance; the sum-bound suboptimality witness reports the
    transformed norm against the 0.1 threshold while the family's TV stays
    pinned at 1. ``trials`` is a count >= 1 and ``seed`` one >= 0.
    """
    ratios = bound_ratios(random_step_profiles(trials, seed))

    # every indicator member the checks below use, built once; the slope
    # members' (L1, L2) norms of J v_k, evaluated once
    members = {k: indicator_family(k).profile for k in (1.0, 2.0, 4.0, 8.0, 16.0, 64.0, 256.0)}
    ks = (1.0, 2.0, 4.0, 8.0, 16.0)
    g_norms = {k: j_norms(members[k]) for k in ks}

    # one fit of the columns log ||J v_k||_L1, log ||J v_k||_L2, log ||v_k||_L2 over log k
    logs = np.log([(*g_norms[k], members[k].norm_l2()) for k in ks])
    slope_g_l1, slope_g_l2, slope_v_l2 = np.polyfit(np.log(ks), logs, 1)[0]
    ratios["decay_slope_g_l1 (-1.5 +/- 0.02)"] = abs(slope_g_l1 + 1.5) / 0.02
    ratios["decay_slope_g_l2 (-1.0 +/- 0.02)"] = abs(slope_g_l2 + 1.0) / 0.02
    ratios["decay_slope_v_l2 (-0.5 +/- 0.02)"] = abs(slope_v_l2 + 0.5) / 0.02

    # Sum-form bounds cannot see ||v_k||_L2 -> 0 while the TV stays 1: the
    # witness is that the transform norm collapses with the TV pinned.
    ratios["sum_bound_witness_g16_l2 (< 0.1)"] = g_norms[16.0][1] / 0.1
    ratios["indicator_tv_pinned (= 1)"] = abs(members[16.0].tv() - 1.0) / 1e-12

    # Product-bound tightness on the indicator family: the ratio is a
    # k-independent constant strictly below 1.
    tight = [(members[k].edges, members[k].values) for k in (4.0, 16.0, 64.0, 256.0)]
    ratios["indicator_l2_ratio (< 1)"] = bound_ratios(tight)["l2_product_bound"]
    return ratios
