import dataclasses
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from abeltv import (
    BUILTIN_PHANTOM_NAMES,
    ExperimentConfig,
    GridRZ,
    NoiseSpec,
    Shape,
    add_noise,
    apply_abel,
    build_abel_matrix,
    builtin_phantom,
    norm_l2_vh,
    rasterize_phantom,
)


class TestShapes:
    def test_kind_and_level_validation(self):
        with pytest.raises(ValueError):
            Shape("triangle", (0.0, 0.5), (0.0, 0.5), 1.0)
        with pytest.raises(ValueError):
            Shape("rect", (0.0, 0.5), (0.0, 0.5), 1.5)

    @pytest.mark.parametrize(
        "kind, r, z, key",
        [
            ("rect", (0.0, math.nan), (-0.5, 0.5), "r"),
            ("rect", (0.0, 0.5), (-math.inf, 0.5), "z"),
            ("half_ellipse", (math.nan, 0.1), (0.0, 0.3), "r"),
            ("half_ellipse", (0.5, -0.6), (0.0, 0.3), "r"),  # passed the box check
            ("half_ellipse", (0.2, 0.1), (0.0, -1.5), "z"),  # painted both axial boundary rows
            ("half_ellipse", (0.2, 0.0), (0.0, 0.3), "r"),
            ("rect", (0.5, 0.2), (-0.5, 0.5), "r"),  # painted nothing
            ("rect", (0.3, 0.3), (-0.5, 0.5), "r"),
            ("rect", (0.0, 0.5), (0.4, -0.4), "z"),
        ],
    )
    def test_degenerate_geometry_rejected(self, kind, r, z, key):
        with pytest.raises(ValueError, match=f"^{key} "):
            Shape(kind, r, z, 1.0)

    def test_flat_rect_allowed(self):
        grid = GridRZ(32)
        u = rasterize_phantom((Shape("rect", (0.0, 0.5), (0.25, 0.25), 1.0),), grid)
        assert_array_equal(u.values[:16, 40], 1.0)
        assert u.values.sum() == 16.0

    def test_json_roundtrip(self):
        # a spec written as the config's JSON schema parses back to itself
        spec = builtin_phantom("four-blobs")
        assert _parse_inline(json.loads(json.dumps(_as_json(spec)))) == spec

    def test_json_schema_fields(self):
        obj = {"shapes": [{"kind": "rect", "r": [0.0, 0.5], "z": [-0.25, 0.25], "level": 0.75}]}
        assert _parse_inline(obj) == (Shape("rect", (0.0, 0.5), (-0.25, 0.25), 0.75),)
        obj = _as_json(builtin_phantom("nested-annuli"))
        assert set(obj) == {"shapes"}
        assert set(obj["shapes"][0]) == {"kind", "r", "z", "level"}


def _as_json(shapes: tuple[Shape, ...]) -> dict:
    """The inline phantom of the config's JSON schema for ``shapes``."""
    return {"shapes": [dataclasses.asdict(s) for s in shapes]}


def _parse_inline(phantom: dict) -> tuple[Shape, ...]:
    """The phantom of a config whose ``phantom`` is ``phantom``."""
    run = {"variance_fraction": 0.0, "lambda": 80, "tau": 0.2, "gamma": 0.2, "max_iter": 1, "seed": 0}
    obj = {"grid_n": 16, "phantom": phantom, "output_dir": "unused", "runs": [run]}
    return ExperimentConfig.from_dict(obj).phantom


class TestRasterize:
    def test_empty_spec_gives_zero_field(self):
        grid = GridRZ(16)
        u = rasterize_phantom((), grid)
        assert not u.values.any()

    def test_single_rectangle_levels_and_tv(self):
        from abeltv import tv_seminorm

        grid = GridRZ(64)
        spec = (Shape("rect", (0.0, 0.5), (-0.5, 0.5), 1.0),)
        u = rasterize_phantom(spec, grid)
        R, Z = np.meshgrid(grid.r_centers, grid.z, indexing="ij")
        inside = (R < 0.5) & (np.abs(Z) <= 0.5)
        assert_array_equal(u.values[inside], 1.0)
        assert_array_equal(u.values[~inside], 0.0)
        # Boundary seen by one-sided differences: the outer radial edge
        # (height 1.0) plus two axial edges (width 0.5 each); the r = 0 edge
        # has no neighbour cell and contributes nothing.
        tv = tv_seminorm(u)
        assert tv == pytest.approx(1.0 + 2 * 0.5, abs=3 * grid.h)

    def test_overwrite_rule(self):
        grid = GridRZ(32)
        spec = (
            Shape("rect", (0.0, 0.6), (-0.6, 0.6), 1.0),
            Shape("rect", (0.0, 0.3), (-0.3, 0.3), 0.4),
        )
        u = rasterize_phantom(spec, grid)
        R, Z = np.meshgrid(grid.r_centers, grid.z, indexing="ij")
        overlap = (R < 0.3) & (np.abs(Z) <= 0.3)
        assert_array_equal(u.values[overlap], 0.4)

    def test_permutation_invariance_for_disjoint_shapes(self):
        grid = GridRZ(32)
        shapes = builtin_phantom("four-blobs")
        u_fwd = rasterize_phantom(shapes, grid)
        u_rev = rasterize_phantom(shapes[::-1], grid)
        assert_array_equal(u_fwd.values, u_rev.values)

    def test_escaping_shape_rejected(self):
        grid = GridRZ(16)
        too_wide = (Shape("rect", (0.0, 0.99), (-0.5, 0.5), 1.0),)
        with pytest.raises(ValueError):
            rasterize_phantom(too_wide, grid)
        too_tall = (Shape("half_ellipse", (0.3, 0.1), (0.8, 0.3), 1.0),)
        with pytest.raises(ValueError):
            rasterize_phantom(too_tall, grid)

    @pytest.mark.parametrize("name", BUILTIN_PHANTOM_NAMES)
    @pytest.mark.parametrize("n_r", [32, 128])
    def test_builtin_ground_truth_invariants(self, name, n_r):
        grid = GridRZ(n_r)
        u = rasterize_phantom(builtin_phantom(name), grid)
        assert (u.values >= 0.0).all()
        assert not u.values[-1, :].any()  # outermost radial cell empty
        assert not u.values[:, 0].any() and not u.values[:, -1].any()
        assert u.values.max() == 1.0  # both ship with peak level 1

    def test_unknown_builtin(self):
        with pytest.raises(ValueError):
            builtin_phantom("checkerboard")


@pytest.fixture(scope="module")
def f0():
    grid = GridRZ(128)
    A = build_abel_matrix(grid)
    u0 = rasterize_phantom(builtin_phantom("nested-annuli"), grid)
    return apply_abel(A, u0)


class TestNoise:
    def test_zero_variance_identity(self, f0):
        f = add_noise(f0, NoiseSpec(variance_fraction=0.0, seed=1))
        assert_array_equal(f.values, f0.values)

    def test_sample_variance_matches_requested(self, f0):
        ns = NoiseSpec(variance_fraction=0.0005, seed=3)
        f = add_noise(f0, ns)
        eta = f.values - f0.values
        sigma2 = 0.0005 * np.abs(f0.values).max()
        assert abs(eta.var() - sigma2) / sigma2 <= 0.05

    def test_empirical_mean_within_four_sigma(self, f0):
        ns = NoiseSpec(variance_fraction=0.0005, seed=5)
        eta = add_noise(f0, ns).values - f0.values
        sigma = np.sqrt(0.0005 * np.abs(f0.values).max())
        assert abs(eta.mean()) <= 4.0 * sigma / np.sqrt(eta.size)

    def test_l2_concentration(self, f0):
        # ||f - f0||_{l2(V_h)} concentrates near sigma * sqrt(domain area),
        # the domain being [0,1] x [-1,1] of area 2.
        ns = NoiseSpec(variance_fraction=0.0005, seed=9)
        f = add_noise(f0, ns)
        sigma = np.sqrt(0.0005 * np.abs(f0.values).max())
        got = norm_l2_vh(f.values - f0.values, f0.grid.h)
        assert abs(got - sigma * np.sqrt(2.0)) / (sigma * np.sqrt(2.0)) <= 0.10

    def test_seed_determinism(self, f0):
        ns = NoiseSpec(variance_fraction=0.0005, seed=42)
        f1 = add_noise(f0, ns)
        f2 = add_noise(f0, ns)
        assert_array_equal(f1.values, f2.values)
        f3 = add_noise(f0, NoiseSpec(variance_fraction=0.0005, seed=43))
        assert (f3.values != f1.values).any()

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(variance_fraction=-0.1, seed=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_variance_rejected(self, bad):
        with pytest.raises(ValueError, match="variance_fraction"):
            NoiseSpec(variance_fraction=bad, seed=0)
