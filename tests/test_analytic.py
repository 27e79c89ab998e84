import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.integrate import quad

import abeltv
from abeltv import (
    PiecewiseConstantProfile,
    abel_transform,
    bound_constants,
    bound_ratios,
    indicator_family,
    j_norms,
    j_transform,
    random_step_profiles,
    running_average,
    stieltjes_inverse,
)

SQRT_PI = math.sqrt(math.pi)


def profile(breakpoints, values):
    return PiecewiseConstantProfile(np.asarray(breakpoints, float), np.asarray(values, float))


def test_import_does_not_load_scipy_integrate():
    # only the quadrature paths need scipy.integrate; they import it on use
    env = dict(os.environ)
    src = str(Path(abeltv.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    code = "import sys, abeltv, abeltv.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


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
        for x in (0.0, 0.15, 0.5, 0.83):
            exact = j_transform(v, x)
            numeric = j_transform(lambda r: float(v(r)), x, breakpoints=v.breakpoints[1:])
            assert numeric == pytest.approx(exact, abs=1e-9)

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
        for x in (0.0, 0.3, 0.9):
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

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            abel_transform(lambda r: 0.0, 1.2)


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


class TestRunningAverage:
    def test_constant(self):
        assert running_average(lambda y: 4.2, 0.25, 0.5) == pytest.approx(4.2, abs=1e-12)

    def test_linear_exact(self):
        assert running_average(lambda y: y, 0.2, 0.5) == pytest.approx(0.4, abs=1e-10)

    def test_sup_norm_never_amplified(self):
        v = lambda y: math.sin(7.0 * y) + 0.5 * math.cos(23.0 * y)
        sup_v = 1.5  # |sin| + 0.5|cos| bound
        h = 0.1
        for x in np.linspace(h, 1.0, 50):
            assert abs(running_average(v, h, float(x))) <= sup_v

    def test_window_validation(self):
        with pytest.raises(ValueError):
            running_average(lambda y: y, 0.6, 0.7)
        with pytest.raises(ValueError):
            running_average(lambda y: y, 0.0, 0.5)
        with pytest.raises(ValueError):
            running_average(lambda y: y, 0.2, 0.1)


class TestBoundConstants:
    def test_closed_form_values(self):
        C = bound_constants()
        assert C.c_l2_2d == pytest.approx(2.3759, abs=1e-4)
        assert C.c_l1_2d == pytest.approx(4.0174, abs=1e-4)
        assert C.young_l2 == pytest.approx(0.7978846, abs=1e-7)
        assert C.young_l1 == pytest.approx(4.0 / (3.0 * SQRT_PI), abs=1e-15)

    def test_kernel_l1_norms_scale_as_sqrt_h(self):
        C = bound_constants()
        for h in (0.5, 0.1, 0.01):
            assert C.kernel_k1_l1(h) == pytest.approx(2.0 * math.sqrt(h))
            assert C.kernel_k2_l1(h) == pytest.approx(2.0 * (2.0 - math.sqrt(2.0)) * math.sqrt(h))

    def test_kernel_l1_norms_against_quadrature(self):
        # K1(s) = 1/sqrt(h - s) on [0, h]; K2(s) = 1/sqrt(h+s) - 1/sqrt(s)
        # on [0, h] (up to reflection); their L1 norms have the closed forms
        # 2 sqrt(h) and 2(2 - sqrt(2)) sqrt(h).
        h = 0.3
        k1, _ = quad(lambda s: 1.0 / math.sqrt(h - s), 0.0, h, points=[h], limit=200)
        k2, _ = quad(
            lambda s: 1.0 / math.sqrt(s) - 1.0 / math.sqrt(s + h), 0.0, h, points=[0.0], limit=200
        )
        C = bound_constants()
        assert k1 == pytest.approx(C.kernel_k1_l1(h), abs=1e-9)
        assert k2 == pytest.approx(C.kernel_k2_l1(h), abs=1e-9)

    def test_all_positive(self):
        C = bound_constants()
        assert min(C.c_l2_2d, C.c_l1_2d, C.young_l2, C.young_l1) > 0


class TestStabilityBounds:
    def test_random_profile_suite_no_violations(self):
        worst = bound_ratios(random_step_profiles(1000, seed=20240))
        assert worst["l2_product"] <= 1.0
        assert worst["l1_product"] <= 1.0
        assert worst["young_l2"] <= 1.0
        assert worst["young_l1"] <= 1.0

    def test_indicator_family_ratio_constant_below_one(self):
        # For the scaled indicators the product bound's left/right ratio is
        # k-independent and strictly below 1 (the bound is tight up to the
        # constant).
        C = bound_constants()
        ratios = []
        for k in (2.0, 8.0, 32.0, 128.0):
            fam = indicator_family(k)
            _, g_l2 = j_norms(fam.profile)
            ratios.append(
                fam.profile.norm_l2() / (C.c_l2_2d * math.sqrt(fam.profile.tv() * g_l2))
            )
        assert_allclose(ratios, ratios[0], rtol=1e-8)
        assert 0.0 < ratios[0] < 1.0

    def test_generator_respects_hypotheses(self):
        for v in random_step_profiles(50, seed=1):
            assert v.values[-1] == 0.0
            assert v.breakpoints[-1] < 1.0
            assert (v.values >= 0.0).all() and (v.values <= 1.0).all()
            assert 2 <= len(v.values) <= 9

    def test_generator_seeded_and_validated(self):
        a = [v.breakpoints for v in random_step_profiles(5, seed=9)]
        b = [v.breakpoints for v in random_step_profiles(5, seed=9)]
        for x, y in zip(a, b):
            assert_allclose(x, y, rtol=0)
        with pytest.raises(ValueError):
            list(random_step_profiles(0, seed=1))
