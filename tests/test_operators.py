import dataclasses
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from abeltv import (
    AbelMatrix,
    GridRZ,
    RadialField,
    abel_transform,
    apply_abel,
    build_abel_matrix,
    divergence,
    gradient,
)
from abeltv.operators import _divergence_step, _gradient_step

SQRT3 = np.sqrt(3.0)


def _field(grid, column):
    """Radial field with the same column at every axial sample."""
    return RadialField(grid, np.tile(np.asarray(column, float)[:, None], (1, grid.n_z)))


class TestAbelMatrix:
    @pytest.mark.parametrize("n", [2, 7, 64])
    def test_matrix_is_its_entries(self, n):
        assert [f.name for f in dataclasses.fields(AbelMatrix)] == ["entries"]
        A = build_abel_matrix(GridRZ(n))
        assert A.n == n and type(A.n) is int
        assert A == A and A != build_abel_matrix(GridRZ(n))
        assert hash(A) == hash(A)

    @pytest.mark.parametrize("shape", [(3, 4), (4,), (2, 2, 2)])
    def test_non_square_entries_rejected(self, shape):
        with pytest.raises(ValueError, match="is not square"):
            AbelMatrix(np.zeros(shape))

    @pytest.mark.parametrize("n", [2, 3, 12, 64, 100, 128, 256])
    def test_entries_are_chord_formula_bit_for_bit(self, n):
        # entry (i, j), 0-based, for cell [jh, (j+1)h] at height x_i = ih
        h = 1.0 / n
        want = np.zeros((n, n))
        for i in range(n):
            x2 = (i * h) * (i * h)
            for j in range(i, n):
                outer, inner = (j + 1) * h, j * h
                chord = math.sqrt(max(outer * outer - x2, 0.0)) - math.sqrt(max(inner * inner - x2, 0.0))
                want[i, j] = 2.0 * chord
        assert build_abel_matrix(GridRZ(n)).entries.tobytes() == want.tobytes()

    def test_two_cell_entries(self):
        grid = GridRZ(2)
        A = build_abel_matrix(grid)
        assert_allclose(A.entries, [[1.0, 1.0], [0.0, SQRT3]], atol=1e-15)

    def test_two_cell_row_sums_are_chord_lengths(self):
        grid = GridRZ(2)
        A = build_abel_matrix(grid)
        assert_allclose(A.entries.sum(axis=1), [2.0, SQRT3], atol=1e-14)
        assert_allclose(A.entries.sum(axis=1), 2.0 * np.sqrt(1.0 - grid.x**2), atol=1e-14)

    @pytest.mark.parametrize("n_r", [2, 7, 64, 128])
    def test_row_sum_identity(self, n_r):
        grid = GridRZ(n_r)
        A = build_abel_matrix(grid)
        assert_allclose(A.entries.sum(axis=1), 2.0 * np.sqrt(1.0 - grid.x**2), atol=1e-12)

    @pytest.mark.parametrize("n_r", [2, 5, 33])
    def test_upper_triangular_positive_diagonal(self, n_r):
        A = build_abel_matrix(GridRZ(n_r))
        assert_array_equal(np.tril(A.entries, -1), 0.0)
        assert (np.diag(A.entries) > 0).all()
        assert A.entries[-1, :-1].sum() == 0.0 and A.entries[-1, -1] > 0

    def test_entries_positive_on_upper_triangle(self):
        A = build_abel_matrix(GridRZ(16))
        iu = np.triu_indices(16)
        assert (A.entries[iu] > 0).all()


class TestApplyAbel:
    def test_unit_disc_projection(self):
        grid = GridRZ(16)
        A = build_abel_matrix(grid)
        f = apply_abel(A, _field(grid, np.ones(16)))
        expected = 2.0 * np.sqrt(1.0 - grid.x**2)
        for k in range(grid.n_z):
            assert_allclose(f.values[:, k], expected, atol=1e-13)

    def test_zero_field(self):
        grid = GridRZ(8)
        A = build_abel_matrix(grid)
        assert not apply_abel(A, RadialField(grid, np.zeros((8, 17)))).values.any()

    def test_hand_matrix_vector_product(self):
        grid = GridRZ(2)
        A = build_abel_matrix(grid)
        f = apply_abel(A, _field(grid, [1.0, 2.0]))
        assert_allclose(f.values[:, 0], [3.0, 2.0 * SQRT3], atol=1e-14)

    def test_dimension_mismatch(self):
        A = build_abel_matrix(GridRZ(4))
        with pytest.raises(ValueError):
            apply_abel(A, RadialField(GridRZ(8), np.zeros((8, 17))))

    def test_exact_on_cellwise_constant_fields(self):
        # Onion peeling integrates cell-wise-constant profiles exactly;
        # oracle is the continuous transform of the step profile by
        # singularity-aware quadrature.
        grid = GridRZ(16)
        A = build_abel_matrix(grid)
        rng = np.random.default_rng(5)
        column = rng.uniform(0.0, 1.0, 16)
        f = apply_abel(A, _field(grid, column))
        edges = grid.r_edges

        def u(r):
            return column[min(int(r / grid.h), 15)] if r < 1.0 else 0.0

        for i, x in enumerate(grid.x):
            oracle = abel_transform(u, x, breakpoints=edges[1:-1])
            assert abs(f.values[i, 0] - oracle) <= 1e-9 * max(1.0, abs(oracle))

    def test_forward_consistency_rate(self):
        # Midpoint-sampled smooth profile: sup error vs the continuous
        # transform shrinks at least linearly in h.
        def u(r):
            return (1.0 - r * r) ** 2 if r < 1.0 else 0.0

        errs = {}
        for n_r in (32, 64, 128, 256):
            grid = GridRZ(n_r)
            A = build_abel_matrix(grid)
            f = apply_abel(A, _field(grid, (1.0 - grid.r_centers**2) ** 2))
            exact = np.array([abel_transform(u, x) for x in grid.x])
            errs[n_r] = np.abs(f.values[:, 0] - exact).max()
        assert errs[64] <= errs[32] / 1.8
        assert errs[128] <= errs[64] / 1.8
        assert errs[256] <= errs[128] / 1.8


class TestGradient:
    def test_constant_field(self):
        grid = GridRZ(4)
        g = gradient(np.full((4, 9), 2.5), h=grid.h)
        assert not g.any()

    def test_hand_two_by_two(self):
        g = gradient(np.array([[0.0, 1.0], [0.0, 1.0]]), h=1.0)
        assert_array_equal(g[0], [[0.0, 0.0], [0.0, 0.0]])
        assert_array_equal(g[1], [[1.0, 0.0], [1.0, 0.0]])

    def test_boundary_rows_zero(self):
        rng = np.random.default_rng(3)
        g = gradient(rng.normal(size=(6, 9)), h=0.25)
        assert not g[0, -1, :].any()
        assert not g[1, :, -1].any()

    def test_scaling_exact(self):
        rng = np.random.default_rng(4)
        u = rng.normal(size=(5, 7))
        assert_array_equal(gradient(2.0 * u, h=0.2), 2.0 * gradient(u, h=0.2))


class TestDivergence:
    def test_zero(self):
        assert not divergence(np.zeros((2, 4, 9)), h=0.25).any()

    def test_interior_impulse(self):
        h = 0.25
        p = np.zeros((2, 8, 9))
        p[0, 3, 4] = 1.0
        d = divergence(p, h=h)
        assert d[3, 4] == pytest.approx(1.0 / h)
        assert d[4, 4] == pytest.approx(-1.0 / h)
        d[3, 4] = d[4, 4] = 0.0
        assert not d.any()

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            divergence(np.zeros((3, 4, 9)), h=0.25)

    def test_adjointness_random_pairs(self):
        # <grad u, p> = -<u, div p> to 1e-12 relative, 100 random pairs.
        grid = GridRZ(64)
        h = grid.h
        rng = np.random.default_rng(7)
        for _ in range(100):
            u = rng.normal(size=(64, 129))
            p = rng.normal(size=(2, 64, 129))
            gu = gradient(u, h=h)
            dp = divergence(p, h=h)
            lhs = np.sum(gu * p)
            rhs = np.sum(u * dp)
            scale = np.linalg.norm(gu.ravel()) * np.linalg.norm(p.ravel()) + np.linalg.norm(
                u
            ) * np.linalg.norm(dp)
            assert abs(lhs + rhs) <= 1e-12 * scale

    def test_adjointness_unit_spacing(self):
        # The solver runs the pair at h=1; adjointness is scale-free.
        rng = np.random.default_rng(8)
        u = rng.normal(size=(10, 21))
        p = rng.normal(size=(2, 10, 21))
        assert abs(np.sum(gradient(u, h=1.0) * p) + np.sum(u * divergence(p, h=1.0))) <= 1e-12


def _signed_zero_input(shape, order, seed):
    """Random normal entries with exact +0.0 and -0.0 among them."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=shape)
    a[rng.random(shape) < 0.15] = 0.0
    a[rng.random(shape) < 0.15] = -0.0
    return np.asarray(a, order=order)


def _ref_gradient(u, h):
    zeros_row, zeros_col = np.zeros((1, u.shape[1])), np.zeros((u.shape[0], 1))
    return np.stack(
        [
            np.concatenate([np.diff(u, axis=0), zeros_row], axis=0),
            np.concatenate([np.diff(u, axis=1), zeros_col], axis=1),
        ]
    ) / h


def _ref_divergence(p, h):
    p1, p2 = p
    radial = np.concatenate([p1[:1], np.diff(p1[:-1], axis=0), -p1[-2:-1]], axis=0)
    axial = np.concatenate([p2[:, :1], np.diff(p2[:, :-1], axis=1), -p2[:, -2:-1]], axis=1)
    return (radial + axial) / h


STENCIL_SHAPES = [(2, 3), (3, 7), (4, 2), (33, 67), (128, 257)]


class TestStencilsAgainstReference:
    @pytest.mark.parametrize("shape", STENCIL_SHAPES, ids=lambda s: "x".join(map(str, s)))
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("h_kind", ["one", "inv_n_r", "0.3"])
    def test_gradient_and_divergence_match_np_diff(self, shape, order, h_kind):
        h = {"one": 1.0, "inv_n_r": 1.0 / shape[0], "0.3": 0.3}[h_kind]
        u = _signed_zero_input(shape, order, 1)
        p = _signed_zero_input((2,) + shape, order, 2)
        assert (u == 0).any() and np.signbit(u[u == 0]).any()
        assert_array_equal(gradient(u, h=h), _ref_gradient(u, h))
        assert_array_equal(divergence(p, h=h), _ref_divergence(p, h))

    def test_non_contiguous_out_rejected_untouched(self):
        u = _signed_zero_input((4, 9), "C", 3)
        p = _signed_zero_input((2, 4, 9), "C", 4)
        out = np.full((2, 4, 9), 7.0, order="F")
        with pytest.raises(ValueError, match="C-contiguous"):
            _gradient_step(u, out)
        assert (out == 7.0).all()
        # a step binds views of its input too, so the input must not be a copy
        out = np.full((2, 4, 9), 7.0)
        with pytest.raises(ValueError, match="C-contiguous"):
            _gradient_step(np.asfortranarray(u), out)
        assert (out == 7.0).all()
        for q, d, scratch in [
            (p, np.full((4, 9), 7.0, order="F"), np.empty((4, 9))),
            (p, np.full((4, 18), 7.0)[:, ::2], np.empty((4, 9))),
            (p, np.full((4, 9), 7.0), np.empty((4, 9), order="F")),
            (np.asfortranarray(p), np.full((4, 9), 7.0), np.empty((4, 9))),
        ]:
            with pytest.raises(ValueError, match="C-contiguous"):
                _divergence_step(q, d, scratch)
            assert (d == 7.0).all()

    @pytest.mark.parametrize("shape", [(2, 1, 5), (2, 5, 1), (2, 1, 1)])
    def test_divergence_rejects_single_row_or_column(self, shape):
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            divergence(np.zeros(shape), h=1.0)
