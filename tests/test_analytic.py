import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.integrate import quad

from abeltv import (
    C_L1_2D,
    C_L2_2D,
    YOUNG_L1,
    YOUNG_L2,
    PiecewiseConstantProfile,
    abel_transform,
    bound_ratios,
    indicator_family,
    j_norms,
    j_transform,
    random_step_profiles,
    stieltjes_inverse,
)
from abeltv.analytic import _j_norms_quadrature, _j_norms_stacked, verify_bounds

SQRT_PI = math.sqrt(math.pi)
# the first three random_step_profiles(.., seed=9), as (edges[:-1], values)
SEED_9_PROFILES = [
    (
        [0.0, 0.2724763486331776, 0.5729907425489837, 0.6802708981233869, 0.7386573787741698],
        [0.9153801204905075, 0.8603936491828846, 0.9182376290487624, 0.026587734467597213, 0.0],
    ),
    (
        [
            0.0, 0.005344748145423278, 0.06189648750160215, 0.41538560012303327,
            0.46069711062842367, 0.7453793600390456, 0.7890903651226941, 0.9341371320718667,
        ],
        [
            0.31560348997827314, 0.7053337045894538, 0.2991810731982467, 0.7407484828757487,
            0.279747219748287, 0.7825909153281315, 0.9877407468945767, 0.0,
        ],
    ),
    ([0.0, 0.838719438646842, 0.867169549194722], [0.7082069141031725, 0.5544968772635087, 0.0]),
]


def profile(breakpoints, values):
    return PiecewiseConstantProfile(np.asarray(breakpoints, float), np.asarray(values, float))


def step_profile(rng, pieces, trailing_zero=True):
    """A random step profile with ``pieces`` pieces, values in [-1, 1]; the
    last is 0 when ``trailing_zero``."""
    bps = np.concatenate([[0.0], np.sort(rng.uniform(0.01, 0.99, pieces - 1))])
    vals = rng.uniform(-1.0, 1.0, pieces)
    if trailing_zero and pieces > 1:
        vals[-1] = 0.0
    return PiecewiseConstantProfile(bps, vals)


def j_steps_reference(v, xs):
    """J v at the 1-D ``xs`` by the closed form one profile at a time."""
    diff = np.sqrt(np.maximum(v.edges[None, :] - xs[:, None], 0.0))
    return 2.0 * (diff[:, 1:] - diff[:, :-1]) @ v.values / SQRT_PI


def j_norms_reference(v):
    """(L1, L2) norms of J v, one Gauss-Legendre panel at a time."""
    nodes, weights = np.polynomial.legendre.leggauss(96)
    l1 = l2 = 0.0
    for a, b in zip(v.edges[:-1], v.edges[1:]):
        smax = math.sqrt(b - a)
        s = 0.5 * smax * (nodes + 1.0)
        w = 0.5 * smax * weights * 2.0 * s
        g = j_steps_reference(v, b - s * s)
        l1 += float(np.sum(w * np.abs(g)))
        l2 += float(np.sum(w * g * g))
    return l1, math.sqrt(l2)


def bound_ratios_reference(profiles):
    """The four stability ratios' maxima, one profile at a time."""
    worst = dict.fromkeys(("l2_product_bound", "l1_product_bound", "young_l2", "young_l1"), 0.0)
    for v in profiles:
        tv = v.tv()
        if tv == 0.0:
            continue
        g_l1, g_l2 = j_norms_reference(v)
        if g_l2 > 0.0:
            r = v.norm_l2() / (C_L2_2D * math.sqrt(tv) * math.sqrt(g_l2))
            worst["l2_product_bound"] = max(worst["l2_product_bound"], r)
        if g_l1 > 0.0:
            r = v.norm_l1() / (C_L1_2D * tv ** (1.0 / 3.0) * g_l1 ** (2.0 / 3.0))
            worst["l1_product_bound"] = max(worst["l1_product_bound"], r)
        worst["young_l2"] = max(worst["young_l2"], g_l2 / (YOUNG_L2 * tv))
        worst["young_l1"] = max(worst["young_l1"], g_l1 / (YOUNG_L1 * tv))
    return worst


def test_import_does_not_load_scipy_integrate(python):
    # the package is numpy-only; scipy.integrate is the tests' oracle alone.
    # The CSV kernel in abeltv._shortest is compiled on the first dump, not
    # at start-up: a module-level import of it would slip in unseen behind
    # the import of the package's modules.
    loaded = "[m in sys.modules for m in ('scipy.integrate', 'abeltv._shortest')]"
    code = f"import sys, abeltv, abeltv.cli; print({loaded})"
    out = python(["-c", code])
    assert out.strip() == "[False, False]"


def test_user_paths_load_no_scipy(tmp_path, python):
    # The import, `abeltv run`, `abeltv verify-bounds`, both solvers and the
    # panel quadrature behind j_transform/abel_transform on callables are
    # numpy-only, so no scipy import lands in start-up or in any call.
    run = {"variance_fraction": 0.0005, "lambda": 80, "tau": 0.2, "gamma": 0.2, "max_iter": 20}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "grid_n": 8,
        "phantom": "nested-annuli",
        "output_dir": str(tmp_path / "out"),
        "runs": [{**run, "seed": 1}, {**run, "seed": 2}],
    }))
    code = "\n".join([
        "import sys",
        "import numpy as np",
        "import abeltv, abeltv.cli",
        f"assert abeltv.cli.main(['run', '--config', {str(cfg)!r}]) == 0",
        "assert abeltv.cli.main(['verify-bounds', '--trials', '5']) == 0",
        "grid = abeltv.GridRZ(8)",
        "abeltv.solve_onion_peeling(abeltv.build_abel_matrix(grid), abeltv.ProjectionField(grid, np.zeros((8, 17))))",
        "step = lambda r: 1.0 if r < 0.5 else 0.0",
        "assert abs(abeltv.j_transform(step, 0.1, breakpoints=[0.5]) - 2 * 0.4**0.5 / np.pi**0.5) < 1e-15",
        "assert abs(abeltv.abel_transform(step, 0.3, breakpoints=[0.5]) - 2 * 0.4) < 1e-15",
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))",
    ])
    out = python(["-c", code])
    assert out.splitlines()[-1] == "[]"


_STEP = PiecewiseConstantProfile(np.array([0.0, 0.5]), np.array([1.0, 0.0]))


def _input_rules():
    """A (call, value, message) row, with an id naming both, for each bad
    number the analytic layer takes."""
    calls = {
        "indicator_family": indicator_family,
        "j_transform": lambda x: j_transform(_STEP, x),
        "abel_transform": lambda x: abel_transform(lambda r: 1.0, x),
        "stieltjes_inverse": lambda r: stieltjes_inverse(_STEP, r),
        "seed": lambda seed: verify_bounds(seed=seed, trials=3),
        "trials": lambda trials: verify_bounds(seed=1, trials=trials),
    }
    for name, value, message in [
        ("indicator_family", math.nan, "k must be finite, got nan"),
        ("indicator_family", math.inf, "k must be finite, got inf"),
        ("indicator_family", True, "k must be a number, got True"),
        ("indicator_family", "4", "k must be a number, got '4'"),
        ("j_transform", True, "x must be a number, got True"),
        ("abel_transform", "0.5", "x must be a number, got '0.5'"),
        ("stieltjes_inverse", True, "r must be a number, got True"),
        ("stieltjes_inverse", "0.1", "r must be a number, got '0.1'"),
        ("seed", True, "seed must be an integer, got True"),
        ("seed", -1, "seed must be >= 0, got -1"),
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("trials", 0, "trials must be >= 1, got 0"),
        ("trials", 2.5, "trials must be an integer, got 2.5"),
        ("trials", True, "trials must be an integer, got True"),
    ]:
        yield pytest.param(calls[name], value, message, id=f"{name}-{value!r}")


@pytest.mark.parametrize("call, value, message", _input_rules())
def test_numbers_read_by_value_rules(call, value, message):
    # x, k and r are numbers by grids._real, trials and seed counts by
    # grids._integer; each error names the argument
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


class TestProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            profile([0.1, 0.5], [1.0, 0.0])  # must start at 0
        with pytest.raises(ValueError):
            profile([0.0, 0.5, 0.5], [1.0, 2.0, 0.0])  # strictly increasing
        with pytest.raises(ValueError):
            profile([0.0, 1.0], [1.0, 0.0])  # below 1
        with pytest.raises(ValueError):
            profile([0.0], [np.inf])

    def test_evaluation(self):
        v = profile([0.0, 0.3, 0.7], [2.0, -1.0, 0.0])
        assert v(0.0) == 2.0
        assert v(0.3) == -1.0  # right-continuous at jumps
        assert v(0.65) == -1.0
        assert v(0.9) == 0.0
        assert v(1.0) == 0.0  # zero extension beyond [0, 1)
        assert_allclose(v(np.array([0.1, 0.5])), [2.0, -1.0])

    def test_edges_stored_once_read_only(self):
        v = profile([0.0, 0.25, 0.5], [1.0, 3.0, 0.0])
        assert_array_equal(v.edges, [0.0, 0.25, 0.5, 1.0])
        assert v.edges is v.edges
        assert not v.edges.flags.writeable
        assert "edges" not in repr(v)

    def test_norms_and_tv(self):
        v = profile([0.0, 0.25, 0.5], [1.0, 3.0, 0.0])
        assert v.norm_l1() == pytest.approx(0.25 * 1 + 0.25 * 3)
        assert v.norm_l2() == pytest.approx(math.sqrt(0.25 * 1 + 0.25 * 9))
        assert v.tv() == pytest.approx(2.0 + 3.0)  # jump up 2, closing jump 3

    def test_tv_counts_closing_jump_at_support_boundary(self):
        # full-width indicator: one downward jump, at the boundary
        assert profile([0.0], [1.0]).tv() == 1.0


class TestJTransform:
    def test_indicator_k2_at_origin(self):
        fam = indicator_family(2.0)
        want = 2.0 / SQRT_PI * math.sqrt(0.5)
        assert j_transform(fam.profile, 0.0) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(0.7978846, abs=1e-7)

    def test_zero_profile(self):
        z = profile([0.0], [0.0])
        for x in (0.0, 0.3, 1.0):
            assert j_transform(z, x) == 0.0

    def test_gamma_identity_constant_transform(self):
        # v(r) = 1/sqrt(a - r) on [0, a) transforms to the constant sqrt(pi).
        a = 0.5

        def v(r):
            return 1.0 / math.sqrt(a - r) if r < a else 0.0

        for x in (0.0, 0.2, 0.45):
            got = j_transform(v, x, breakpoints=[a])
            assert got == pytest.approx(SQRT_PI, abs=1e-9)

    def test_callable_matches_profile_closed_form(self):
        v = profile([0.0, 0.2, 0.6, 0.8], [0.5, 2.0, 1.0, 0.0])
        for x in (0.0, 0.15, 0.5, 0.83, 1.0):
            exact = j_transform(v, x)
            numeric = j_transform(lambda r: float(v(r)), x, breakpoints=v.breakpoints[1:])
            assert numeric == pytest.approx(exact, abs=1e-15)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            j_transform(profile([0.0], [0.0]), -0.1)
        with pytest.raises(ValueError):
            j_transform(profile([0.0], [0.0]), 1.5)

    def test_j_squared_is_integration(self):
        # Applying the transform twice integrates: J^2 v (x) = int_x^1 v.
        def v(r):
            return math.cos(3.0 * r) * (1.0 - r * r) ** 2

        for x in (0.0, 0.25, 0.5):
            nested = j_transform(lambda s: j_transform(v, s), x)
            direct, _ = quad(v, x, 1.0, epsabs=1e-12)
            assert nested == pytest.approx(direct, abs=1e-6)


class TestAbelTransform:
    def test_unit_disc(self):
        u = lambda r: 1.0 if r < 1.0 else 0.0
        for x in (0.0, 0.3, 0.9, 1.0):
            assert abel_transform(u, x) == pytest.approx(2.0 * math.sqrt(1 - x * x), abs=1e-12)

    def test_zero(self):
        assert abel_transform(lambda r: 0.0, 0.5) == 0.0

    def test_change_of_variables_identity(self):
        # A u (x) = sqrt(pi) * J v (x^2) with v(r^2) = u(r).
        u = lambda r: (1.0 - r * r) ** 2
        v = lambda s: (1.0 - s) ** 2
        for x in (0.0, 0.3, 0.7):
            lhs = abel_transform(u, x)
            rhs = SQRT_PI * j_transform(v, x * x)
            assert lhs == pytest.approx(rhs, abs=1e-8)
            assert lhs == pytest.approx(16.0 / 15.0 * (1.0 - x * x) ** 2.5, abs=1e-14)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            abel_transform(lambda r: 0.0, 1.2)


class TestJNorms:
    @pytest.mark.parametrize("pieces", range(1, 10))
    def test_matches_panel_by_panel_quadrature(self, pieces):
        rng = np.random.default_rng(100 + pieces)
        for trailing_zero in (True, False):
            for _ in range(5):
                v = step_profile(rng, pieces, trailing_zero)
                # signed values take the quadrature, nonnegative ones the closed forms
                for w in (v, PiecewiseConstantProfile(v.breakpoints, np.abs(v.values))):
                    assert_allclose(j_norms(w), j_norms_reference(w), rtol=1e-13, atol=0)

    def test_breakpoints_1e9_apart_match_quadrature(self):
        # the closed form's artanh(sqrt(lo / hi)) at lo / hi = 1 - 2e-9
        v = profile([0.0, 0.5, 0.5 + 1e-9], [1.0, 0.4, 0.0])
        assert_allclose(j_norms(v), j_norms_reference(v), rtol=1e-13, atol=0)

    def test_rows_do_not_depend_on_their_batch_mates(self):
        # a signed row, two nonnegative ones and a spike of width 1e-9 whose
        # closed form cancels to L2 = 0, so it takes the quadrature
        rng = np.random.default_rng(41)
        signed = step_profile(rng, 4)
        assert (signed.values < 0.0).any()
        rows = [
            signed,
            profile([0.0, 0.2, 0.6, 0.7], [0.3, 0.9, 0.1, 0.0]),
            profile([0.0, 0.5, 0.5 + 1e-9, 0.8], [0.0, 1.0, 0.0, 0.0]),
            profile([0.0, 0.1, 0.3, 0.9], [1.0, 0.0, 0.5, 0.25]),
        ]
        edges = np.array([v.edges for v in rows])
        values = np.array([v.values for v in rows])
        stacked = np.array(_j_norms_stacked(edges, values))
        for i, v in enumerate(rows):
            alone = np.array(_j_norms_stacked(edges[i : i + 1], values[i : i + 1]))
            assert stacked[:, i].tobytes() == alone[:, 0].tobytes()
            assert np.array(j_norms(v)).tobytes() == alone[:, 0].tobytes()
        spike = np.array(_j_norms_quadrature(edges[2:3], values[2:3]))
        assert stacked[:, 2].tobytes() == spike[:, 0].tobytes()
        assert stacked[1, 2] > 0.0

    @pytest.mark.parametrize("pieces", range(1, 10))
    def test_j_transform_matches_closed_form_reference(self, pieces):
        v = step_profile(np.random.default_rng(200 + pieces), pieces)
        xs = np.concatenate([np.linspace(0.0, 1.0, 41), v.edges])
        want = j_steps_reference(v, xs)
        got = [j_transform(v, x) for x in xs]
        assert_allclose(got, want, rtol=1e-13, atol=1e-15)


class TestIndicatorFamily:
    def test_k1_norms(self):
        fam = indicator_family(1.0)
        assert fam.norms["v_l1"] == 1.0
        assert fam.norms["g_l2"] == pytest.approx(0.7978846, abs=1e-7)
        assert fam.profile.tv() == 1.0

    def test_k4_l2_norm(self):
        assert indicator_family(4.0).norms["v_l2"] == 0.5

    def test_closed_form_g_matches_transform(self):
        for k in (1.0, 2.0, 8.0):
            fam = indicator_family(k)
            for x in (0.0, 0.5 / k, 2.0 / k if 2.0 / k <= 1 else 0.9):
                assert j_transform(fam.profile, x) == pytest.approx(fam.g(x), abs=1e-12)

    @pytest.mark.parametrize("k", [1.0, 2.0, 4.0, 8.0])
    def test_numeric_norms_match_closed_forms(self, k):
        fam = indicator_family(k)
        g_l1, g_l2 = j_norms(fam.profile)
        assert g_l1 == pytest.approx(fam.norms["g_l1"], abs=1e-7)
        assert g_l2 == pytest.approx(fam.norms["g_l2"], abs=1e-7)
        assert_allclose([g_l1, g_l2], [fam.norms["g_l1"], fam.norms["g_l2"]], rtol=1e-14, atol=0)
        assert fam.profile.norm_l1() == pytest.approx(fam.norms["v_l1"], abs=1e-14)
        assert fam.profile.norm_l2() == pytest.approx(fam.norms["v_l2"], abs=1e-14)

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            indicator_family(0.5)

    def test_decay_slopes(self):
        ks = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        v_l2 = [indicator_family(k).profile.norm_l2() for k in ks]
        g_l1 = [j_norms(indicator_family(k).profile)[0] for k in ks]
        slope_v = np.polyfit(np.log(ks), np.log(v_l2), 1)[0]
        slope_g = np.polyfit(np.log(ks), np.log(g_l1), 1)[0]
        assert abs(slope_v + 0.5) <= 0.02
        assert abs(slope_g + 1.5) <= 0.02

    def test_sum_bound_suboptimality_witness(self):
        # The transform norm collapses while the TV stays pinned at 1, so
        # any bound with an additive TV term cannot track the decay.
        fam = indicator_family(16.0)
        _, g_l2 = j_norms(fam.profile)
        assert g_l2 < 0.1
        assert fam.profile.tv() == 1.0


class TestStieltjesInverse:
    def test_single_step_closed_form(self):
        g = profile([0.0, 0.5], [SQRT_PI, 0.0])
        for r in (0.0, 0.2, 0.45):
            assert stieltjes_inverse(g, r) == pytest.approx(1.0 / math.sqrt(0.5 - r), rel=1e-14)

    def test_zero_data(self):
        g = profile([0.0], [0.0])
        for r in (0.0, 0.5, 0.99):
            assert stieltjes_inverse(g, r) == 0.0

    def test_vanishes_beyond_last_jump(self):
        g = profile([0.0, 0.3, 0.6], [1.0, 0.4, 0.0])
        assert stieltjes_inverse(g, 0.6) == 0.0
        assert stieltjes_inverse(g, 0.8) == 0.0

    def test_roundtrip_through_transform(self):
        g = profile([0.0, 0.25, 0.55, 0.8], [1.2, 0.7, 0.3, 0.0])
        recon = lambda r: stieltjes_inverse(g, r)
        for x in (0.0, 0.2, 0.4):
            back = j_transform(recon, x, breakpoints=g.breakpoints[1:])
            assert back == pytest.approx(float(g(x)), abs=1e-7)

    def test_precondition_validation(self):
        with pytest.raises(ValueError):
            stieltjes_inverse(profile([0.0, 0.5], [1.0, 0.5]), 0.1)  # not supported in [0,1)
        with pytest.raises(ValueError):
            stieltjes_inverse(profile([0.0, 0.5], [-1.0, 0.0]), 0.1)  # g(0) < 0
        with pytest.raises(ValueError):
            stieltjes_inverse(profile([0.0, 0.5], [1.0, 0.0]), 1.0)  # r outside [0,1)


class TestBoundConstants:
    def test_closed_form_values(self):
        assert C_L2_2D == pytest.approx(2.3759, abs=1e-4)
        assert C_L1_2D == pytest.approx(4.0174, abs=1e-4)
        assert YOUNG_L2 == pytest.approx(0.7978846, abs=1e-7)
        assert YOUNG_L1 == pytest.approx(4.0 / (3.0 * SQRT_PI), abs=1e-15)

    def test_all_positive(self):
        assert min(C_L2_2D, C_L1_2D, YOUNG_L2, YOUNG_L1) > 0


class TestStabilityBounds:
    def test_random_profile_suite_no_violations(self):
        worst = bound_ratios(random_step_profiles(1000, seed=20240))
        assert worst["l2_product_bound"] <= 1.0
        assert worst["l1_product_bound"] <= 1.0
        assert worst["young_l2"] <= 1.0
        assert worst["young_l1"] <= 1.0

    def test_batched_ratios_match_per_profile_loop(self):
        rng = np.random.default_rng(31)
        profiles = [
            profile([0.0, 0.5], [0.0, 0.0]),  # TV 0: skipped
            indicator_family(1.0).profile,  # full width, closing jump at 1
            *(step_profile(rng, 2) for _ in range(3)),  # one nonzero piece
            *(step_profile(rng, 9) for _ in range(43)),  # eight: full batches and a rest
            profile([0.0], [0.0]),
            *(profile(edges[:-1], values) for edges, values in random_step_profiles(60, seed=5)),
        ]
        rng.shuffle(profiles)
        got = bound_ratios((v.edges, v.values) for v in profiles)
        want = bound_ratios_reference(profiles)
        assert got.keys() == want.keys()
        for key in want:
            assert got[key] == pytest.approx(want[key], rel=1e-12, abs=0)
            assert want[key] > 0.0

    def test_ratios_of_no_profiles_or_only_zero_tv_are_zero(self):
        zeros = dict.fromkeys(("l2_product_bound", "l1_product_bound", "young_l2", "young_l1"), 0.0)
        assert bound_ratios(iter(())) == zeros
        rows = [(np.array([0.0, 1.0]), np.array([0.0])), (np.array([0.0, 0.3, 1.0]), np.array([0.0, 0.0]))]
        assert bound_ratios(rows) == zeros

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_suite_memory_stays_bounded(self, sign):
        # Profiles are evaluated in small batches, never a whole piece-count
        # group at once. The suite takes the closed form, its negation takes
        # the quadrature on every row: in a warm process the batches peak
        # near 0.1 MiB and 1.8 MiB.
        tracemalloc.start()
        try:
            bound_ratios((edges, sign * values) for edges, values in random_step_profiles(1000, seed=20240))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_indicator_family_ratio_constant_below_one(self):
        # For the scaled indicators the product bound's left/right ratio is
        # k-independent and strictly below 1 (the bound is tight up to the
        # constant).
        ratios = []
        for k in (2.0, 8.0, 32.0, 128.0):
            fam = indicator_family(k)
            _, g_l2 = j_norms(fam.profile)
            ratios.append(
                fam.profile.norm_l2() / (C_L2_2D * math.sqrt(fam.profile.tv() * g_l2))
            )
        assert_allclose(ratios, ratios[0], rtol=1e-8)
        assert 0.0 < ratios[0] < 1.0

    def test_generator_respects_hypotheses(self):
        for edges, values in random_step_profiles(50, seed=1):
            assert values[-1] == 0.0
            assert edges[-2] < 1.0
            assert (values >= 0.0).all() and (values <= 1.0).all()
            assert 2 <= len(values) <= 9

    def test_generator_seeded_and_validated(self):
        # the stream is pinned
        for (edges, values), (bps, vals) in zip(random_step_profiles(3, seed=9), SEED_9_PROFILES, strict=True):
            assert edges[:-1].tolist() == bps
            assert values.tolist() == vals
        with pytest.raises(ValueError):
            list(random_step_profiles(0, seed=1))

    def test_stream_yields_array_rows(self):
        # each trial is an (edges, values) pair of arrays, not a profile object
        for row, (_, vals) in zip(random_step_profiles(3, seed=9), SEED_9_PROFILES, strict=True):
            edges, values = row
            assert type(edges) is np.ndarray and type(values) is np.ndarray
            assert edges[0] == 0.0 and edges[-1] == 1.0
            assert len(edges) == len(values) + 1
            assert values.tolist() == vals

    @pytest.mark.parametrize("edges", [[0.0, 0.5, 1.0], [0.0, 0.2, 0.5, 0.7, 1.0]])
    def test_ratio_pass_rejects_mismatched_row(self, edges):
        values = np.array([0.3, 1.0, 0.0])
        rows = [(np.array([0.0, 0.5, 0.8, 1.0]), values), (np.array(edges), values)]
        with pytest.raises(ValueError, match="one more edge than values"):
            bound_ratios(rows)

    @pytest.mark.parametrize(
        "array, index, value",
        [
            ("edges", (1, 2), 0.2),  # repeats the breakpoint before it
            ("values", (2, 0), np.nan),
            ("values", (0, 1), np.inf),
            ("edges", (1, 0), 0.1),  # does not start at 0
            ("edges", (2, 3), 1.0),  # last breakpoint at 1
        ],
    )
    def test_ratio_pass_rejects_corrupted_batch(self, array, index, value):
        rows = {
            "edges": np.tile([0.0, 0.2, 0.5, 0.7, 1.0], (3, 1)),
            "values": np.tile([0.3, 1.0, 0.6, 0.0], (3, 1)),
        }
        assert bound_ratios(zip(rows["edges"], rows["values"]))["young_l2"] > 0.0
        rows[array][index] = value
        with pytest.raises(ValueError, match="edges rising strictly from 0 to 1 and finite values"):
            bound_ratios(zip(rows["edges"], rows["values"]))
