"""Continuous transforms, closed-form test families, and stability bounds.

The two integral transforms of interest, for functions supported in [0, 1):

    (J v)(x) = pi^(-1/2) * integral_x^1 v(r) / sqrt(r - x) dr
    (A u)(x) = 2 * integral_x^1 u(r) r / sqrt(r^2 - x^2) dr

related by (A u)(x) = sqrt(pi) * (J v)(x^2) with v(r^2) = u(r).

Quadrature strategy: the kernel singularity at r = x is removed analytically
by the substitution r = x + t^2 (resp. r^2 = x^2 + t^2), after which the
integrand is evaluated by adaptive quadrature; callers may declare interior
breakpoints of v so the integration splits there. Piecewise-constant
profiles bypass quadrature entirely via exact closed forms.

Everything here is a pure function; safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "PiecewiseConstantProfile",
    "BoundConstants",
    "IndicatorFamily",
    "bound_constants",
    "j_transform",
    "abel_transform",
    "j_norms",
    "indicator_family",
    "stieltjes_inverse",
    "running_average",
    "random_step_profiles",
    "bound_ratios",
]

_SQRT_PI = math.sqrt(math.pi)
# 96-node Gauss-Legendre rule on [-1, 1] for the panels of j_norms
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(96)


@dataclass(frozen=True)
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
    edges: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bps = np.array(self.breakpoints, dtype=float)
        vals = np.array(self.values, dtype=float)
        if bps.ndim != 1 or vals.shape != bps.shape or len(bps) == 0:
            raise ValueError("breakpoints and values must be matching 1-D arrays")
        if bps[0] != 0.0:
            raise ValueError("breakpoints must start at 0")
        if (np.diff(bps) <= 0).any() or bps[-1] >= 1.0:
            raise ValueError("breakpoints must increase strictly and stay below 1")
        if not np.isfinite(vals).all():
            raise ValueError("values must be finite")
        edges = np.append(bps, 1.0)
        for arr in (bps, vals, edges):
            arr.setflags(write=False)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "edges", edges)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        idx = np.clip(np.searchsorted(self.edges, r, side="right") - 1, 0, len(self.values) - 1)
        out = np.where((r >= 0.0) & (r < 1.0), self.values[idx], 0.0)
        return out if out.ndim else float(out)

    def norm_l1(self) -> float:
        return float(np.sum(np.abs(self.values) * np.diff(self.edges)))

    def norm_l2(self) -> float:
        return float(np.sqrt(np.sum(self.values**2 * np.diff(self.edges))))

    def tv(self) -> float:
        """Total variation on [0, infinity): interior jumps plus the closing
        jump to 0 at the support boundary."""
        return float(np.sum(np.abs(np.diff(self.values))) + abs(self.values[-1]))

    def jumps(self) -> tuple[np.ndarray, np.ndarray]:
        """Interior jump locations b_1..b_{M-1} and sizes v_m - v_{m-1}."""
        return self.breakpoints[1:], np.diff(self.values)


@dataclass(frozen=True)
class BoundConstants:
    """Closed-form constants of the stability and convolution bounds.

    c_l2_2d : constant of ||v||_L2 <= C ||v||_TV^(1/2) ||Jv||_L2^(1/2)
    c_l1_2d : constant of ||v||_L1 <= C ||v||_TV^(1/3) ||Jv||_L1^(2/3)
    young_l2, young_l1 : ||Jv||_L2 <= c ||v||_TV and ||Jv||_L1 <= c ||v||_TV
    kernel_k1_l1, kernel_k2_l1 : L1 norms, as functions of the averaging
        width h, of the two kernels splitting sqrt(pi) h v_h(x) into
        convolutions against the transformed data.
    """

    c_l2_2d: float
    c_l1_2d: float
    young_l2: float
    young_l1: float
    kernel_k1_l1: Callable[[float], float]
    kernel_k2_l1: Callable[[float], float]


def bound_constants() -> BoundConstants:
    """Evaluate the bound constants exactly from their closed forms."""
    return BoundConstants(
        c_l2_2d=2.0 * math.pi ** (-0.25) * (1.0 + 1.0 / math.sqrt(3.0)) ** 0.5 * (3.0 - math.sqrt(2.0)) ** 0.5,
        c_l1_2d=3.0 ** (4.0 / 3.0) * math.pi ** (-1.0 / 3.0) * (3.0 - math.sqrt(2.0)) ** (2.0 / 3.0),
        young_l2=math.sqrt(2.0 / math.pi),
        young_l1=4.0 / (3.0 * _SQRT_PI),
        kernel_k1_l1=lambda h: 2.0 * math.sqrt(h),
        kernel_k2_l1=lambda h: 2.0 * (2.0 - math.sqrt(2.0)) * math.sqrt(h),
    )


def _require_unit_interval(x: float) -> float:
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"evaluation point must lie in [0, 1], got {x}")
    return x


def j_transform(v, x: float, breakpoints: Sequence[float] | None = None) -> float:
    """Half-order fractional integral (J v)(x) for x in [0, 1].

    Parameters
    ----------
    v : PiecewiseConstantProfile or callable
        Profiles are integrated in closed form (exact). A callable is
        integrated after the substitution r = x + t^2; it must accept
        scalars and vanish outside [0, 1).
    x : float in [0, 1]
    breakpoints : sequence of float, optional
        Known discontinuities or singular points of a callable ``v``; the
        quadrature interval is split there. Ignored for profiles.
    """
    x = _require_unit_interval(x)
    if isinstance(v, PiecewiseConstantProfile):
        return float(_j_steps(v.edges, v.values, np.array([x]))[0])
    if x == 1.0:
        return 0.0
    knots = _t_knots(x, breakpoints, lambda b: math.sqrt(b - x), math.sqrt(1.0 - x))
    total = 0.0
    for lo, hi in zip(knots[:-1], knots[1:]):
        total += _quad(lambda t: v(x + t * t), lo, hi)
    return 2.0 * total / _SQRT_PI


def abel_transform(u, x: float, breakpoints: Sequence[float] | None = None) -> float:
    """Line-of-sight projection (A u)(x) of a radial callable, x in [0, 1].

    Uses the substitution r = sqrt(x^2 + t^2), so the integrand is simply
    2 u(sqrt(x^2 + t^2)) on t in [0, sqrt(1 - x^2)].
    """
    x = _require_unit_interval(x)
    if x == 1.0:
        return 0.0
    knots = _t_knots(x, breakpoints, lambda b: math.sqrt(b * b - x * x), math.sqrt(1.0 - x * x))
    total = 0.0
    for lo, hi in zip(knots[:-1], knots[1:]):
        total += _quad(lambda t: u(math.sqrt(x * x + t * t)), lo, hi)
    return 2.0 * total


def _quad(fn, lo: float, hi: float) -> float:
    """Adaptive quadrature of fn over [lo, hi]. scipy.integrate is imported
    here, on first use, so that importing the package does not load it."""
    from scipy.integrate import quad

    return quad(fn, lo, hi, epsabs=1e-11, epsrel=1e-11, limit=200)[0]


def _j_steps(edges: np.ndarray, values: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Closed form of (J v)(x) at each x of the 1-D ``xs`` for the step
    profile v with piece ``edges`` and ``values``."""
    diff = np.sqrt(np.maximum(edges[None, :] - xs[:, None], 0.0))
    return 2.0 * (diff[:, 1:] - diff[:, :-1]) @ values / _SQRT_PI


def _t_knots(x, breakpoints, to_t, t_max):
    knots = {0.0, t_max}
    if breakpoints is not None:
        for b in breakpoints:
            if x < b < 1.0:
                knots.add(to_t(b))
    return sorted(knots)


def j_norms(v: PiecewiseConstantProfile) -> tuple[float, float]:
    """(L1, L2) norms of J v over [0, 1] for a step profile.

    J v is piecewise smooth with square-root behaviour at the right edge of
    each panel between consecutive breakpoints; the substitution
    x = edge - s^2 makes the panel integrand smooth, after which fixed
    Gauss-Legendre is exact to machine precision.
    """
    edges = v.edges
    l1 = 0.0
    l2 = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        smax = math.sqrt(b - a)
        s = 0.5 * smax * (_GL_NODES + 1.0)
        w = 0.5 * smax * _GL_WEIGHTS * 2.0 * s  # jacobian of x = b - s^2
        g = _j_steps(edges, v.values, b - s * s)
        l1 += float(np.sum(w * np.abs(g)))
        l2 += float(np.sum(w * g * g))
    return l1, math.sqrt(l2)


@dataclass(frozen=True)
class IndicatorFamily:
    """The scaled-indicator test family v_k(r) = 1 on [0, 1/k].

    ``g`` is the closed form of J v_k and ``norms`` collects the exact norm
    values: keys v_l1, v_l2, v_tv, g_l1, g_l2.
    """

    k: float
    profile: PiecewiseConstantProfile
    g: Callable[[np.ndarray], np.ndarray]
    norms: dict


def indicator_family(k: float) -> IndicatorFamily:
    """Closed-form data for the indicator family member at scale k >= 1.

    v_k is the indicator of [0, 1/k]; its transform is
    g_k(x) = 2 pi^(-1/2) (1/k - x)^(1/2) on [0, 1/k], with exact norms

        ||v_k||_L1 = 1/k         ||g_k||_L1 = (4 / (3 sqrt(pi))) k^(-3/2)
        ||v_k||_L2 = k^(-1/2)    ||g_k||_L2 = sqrt(2/pi) k^(-1)
        ||v_k'||_L1 = ||v_k||_TV = 1
    """
    k = float(k)
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
    return IndicatorFamily(k=k, profile=profile, g=g, norms=norms)


def stieltjes_inverse(g: PiecewiseConstantProfile, r: float) -> float:
    """Explicit inversion of J for step data, at radius r in [0, 1).

    For data g of bounded variation with support in [0, 1) and finite
    g(0) >= 0, the unique integrable solution of J v = g is the
    Lebesgue-Stieltjes integral

        v(r) = -pi^(-1/2) * integral_r^1 dg(x) / sqrt(x - r),

    which for step data reduces to the finite sum over jump locations
    a_m > r of -(jump size) / sqrt(a_m - r), scaled by pi^(-1/2).
    Returns 0 for r at or beyond the last jump.
    """
    if g.values[0] < 0.0 or not math.isfinite(g.values[0]):
        raise ValueError("step data must have finite nonnegative value at 0")
    if g.values[-1] != 0.0:
        raise ValueError("step data must be supported in [0, 1) (last value 0)")
    r = float(r)
    if not 0.0 <= r < 1.0:
        raise ValueError(f"r must lie in [0, 1), got {r}")
    locs, sizes = g.jumps()
    mask = locs > r
    if not mask.any():
        return 0.0
    return float(-np.sum(sizes[mask] / np.sqrt(locs[mask] - r)) / _SQRT_PI)


def running_average(v: Callable[[float], float], h: float, x: float) -> float:
    """Trailing window average (1/h) * integral_{x-h}^x v."""
    h = float(h)
    x = float(x)
    if not 0.0 < h <= 0.5:
        raise ValueError(f"h must lie in (0, 1/2], got {h}")
    if not h <= x <= 1.0:
        raise ValueError(f"x must lie in [h, 1], got {x}")
    return _quad(v, x - h, x) / h


def random_step_profiles(
    trials: int,
    seed: int,
    max_pieces: int = 8,
    breakpoint_high: float = 0.95,
) -> Iterator[PiecewiseConstantProfile]:
    """Seeded stream of random compactly supported step profiles.

    Each profile has a uniform piece count in {1..max_pieces}, jump
    locations uniform in (0, breakpoint_high), values uniform in [0, 1] and
    a trailing zero piece, staying inside the hypotheses of the stability
    bounds (bounded, support in [0, 1)).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        pieces = int(rng.integers(1, max_pieces + 1))
        while True:
            bps = np.sort(rng.uniform(0.0, breakpoint_high, pieces))
            if bps[0] > 0.0 and (np.diff(bps) > 0.0).all():
                break
        yield PiecewiseConstantProfile(
            np.concatenate([[0.0], bps]),
            np.concatenate([rng.uniform(0.0, 1.0, pieces), [0.0]]),
        )


def bound_ratios(profiles: Iterable[PiecewiseConstantProfile]) -> dict:
    """Max observed left/right ratios of the four stability inequalities.

    Keys: l2_product, l1_product, young_l2, young_l1. Every value must be
    <= 1 for correct transforms; ratios above 1 indicate an implementation
    bug, not a failure of the (proven) bounds.
    """
    C = bound_constants()
    worst = {"l2_product": 0.0, "l1_product": 0.0, "young_l2": 0.0, "young_l1": 0.0}
    for v in profiles:
        tv = v.tv()
        if tv == 0.0:
            continue
        g_l1, g_l2 = j_norms(v)
        if g_l2 > 0.0:
            worst["l2_product"] = max(
                worst["l2_product"], v.norm_l2() / (C.c_l2_2d * math.sqrt(tv) * math.sqrt(g_l2))
            )
        if g_l1 > 0.0:
            worst["l1_product"] = max(
                worst["l1_product"], v.norm_l1() / (C.c_l1_2d * tv ** (1.0 / 3.0) * g_l1 ** (2.0 / 3.0))
            )
        worst["young_l2"] = max(worst["young_l2"], g_l2 / (C.young_l2 * tv))
        worst["young_l1"] = max(worst["young_l1"], g_l1 / (C.young_l1 * tv))
    return worst
