import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal

from abeltv import (
    DualField,
    ExperimentConfig,
    GridRZ,
    NoiseSpec,
    ProjectionField,
    RadialField,
    RunSpec,
    Shape,
    SolverParams,
    bound_report,
    builtin_phantom,
    indicator_family,
    make_grids,
    rasterize_phantom,
    revolve,
)
from abeltv.grids import _CSV_CHUNK, _lattice_cell_counts, _lattice_cells


class TestMakeGrids:
    def test_smallest_admissible_grid(self):
        grid, g3 = make_grids(2)
        assert grid.h == 0.5
        assert_array_equal(grid.x, [0.0, 0.5])
        assert_array_equal(grid.r_edges, [0.0, 0.5, 1.0])
        assert grid.n_z == 5
        assert g3 is grid

    def test_reference_resolution(self):
        grid, _ = make_grids(128)
        assert grid.h == 1.0 / 128
        assert grid.n_z == 257

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            make_grids(1)

    def test_grid_is_its_cell_count(self):
        assert [f.name for f in dataclasses.fields(GridRZ)] == ["n_r"]
        grid = GridRZ(7)
        assert (grid.n_z, grid.h) == (15, 1.0 / 7)
        assert grid == make_grids(7)[0]
        assert GridRZ(8) == GridRZ(8) and hash(GridRZ(8)) == hash(GridRZ(8))

    def test_axial_samples_cover_unit_interval(self):
        grid, _ = make_grids(8)
        assert grid.z[0] == -1.0 and grid.z[-1] == 1.0
        assert_allclose(np.diff(grid.z), grid.h)

    def test_largest_grid(self):
        assert GridRZ(2048).n_r == 2048

    def test_spacing_consistency(self):
        for n in (2, 3, 10, 100, 128):
            grid, g3 = make_grids(n)
            assert abs(grid.h * n - 1.0) <= 1e-15
            assert g3 is grid


# the records that hold counts, numbers or other records, each with admissible fields
_RECORDS = {
    GridRZ: {"n_r": 8},
    SolverParams: {"lam": 80.0, "tau": 0.2, "gamma": 0.2, "max_iter": 5000, "record_every": 100},
    NoiseSpec: {"variance_fraction": 0.001, "seed": 7},
    Shape: {"kind": "rect", "r": (0.0, 0.5), "z": (-0.5, 0.5), "level": 1.0},
}
_RECORDS[RunSpec] = {"solver": SolverParams(**_RECORDS[SolverParams]), "noise": NoiseSpec(**_RECORDS[NoiseSpec])}
_RECORDS[ExperimentConfig] = {
    "grid_n": 16,
    "phantom": builtin_phantom("nested-annuli"),
    "runs": (RunSpec(**_RECORDS[RunSpec]),),
    "output_dir": "out",
}


@pytest.mark.parametrize(
    "record, field, value, message",
    [
        (GridRZ, "n_r", 2.5, "n_r must be an integer, got 2.5"),
        (GridRZ, "n_r", True, "n_r must be an integer, got True"),
        (GridRZ, "n_r", 1, "n_r must be >= 2, got 1"),
        (SolverParams, "max_iter", 10.5, "max_iter must be an integer, got 10.5"),
        (SolverParams, "max_iter", "5", "max_iter must be an integer, got '5'"),
        (SolverParams, "max_iter", 0, "max_iter must be >= 1, got 0"),
        (SolverParams, "record_every", 2.5, "record_every must be an integer, got 2.5"),
        (SolverParams, "record_every", 0.0, "record_every must be >= 1, got 0"),
        (NoiseSpec, "seed", 1.5, "seed must be an integer, got 1.5"),
        (NoiseSpec, "seed", True, "seed must be an integer, got True"),
        (NoiseSpec, "seed", math.inf, "seed must be an integer, got inf"),
        # an integral float builds the same record as the int
        (GridRZ, "n_r", 8.0, None),
        (SolverParams, "max_iter", 5000.0, None),
        (SolverParams, "record_every", 100.0, None),
        (NoiseSpec, "seed", 7.0, None),
        # every other number is finite, and a bool or a string is no number
        *(
            (record, field, value, f"{field} must be {rule}, got {value!r}")
            for record, field in [
                (SolverParams, "lam"),
                (SolverParams, "tau"),
                (SolverParams, "gamma"),
                (NoiseSpec, "variance_fraction"),
                (Shape, "level"),
            ]
            for value, rule in [
                (True, "a number"),
                ("80", "a number"),
                (None, "a number"),
                (math.nan, "finite"),
                (math.inf, "finite"),
            ]
        ),
        # an int beyond the float range is not finite either
        pytest.param(SolverParams, "lam", 10**400, f"lam must be finite, got {10**400!r}", id="lam-10**400"),
        (Shape, "r", ("0", "0.5"), "r must be a number, got '0'"),
        (Shape, "r", (0, 0.5, 9), "r must be a pair of two numbers, got (0, 0.5, 9)"),
        (Shape, "level", np.float32(1.0), None),
        # records that hold records check what they hold
        (ExperimentConfig, "phantom", "nested-annuli", "phantom must be a sequence of Shapes, got 'nested-annuli'"),
        (
            ExperimentConfig,
            "phantom",
            ({"kind": "rect"},),
            "phantom must be a sequence of Shapes, got ({'kind': 'rect'},)",
        ),
        (ExperimentConfig, "runs", (None,), "runs must be a sequence of RunSpecs, got (None,)"),
        (ExperimentConfig, "output_dir", 5, "output_dir must be a str or os.PathLike, got 5"),
        (RunSpec, "solver", None, "solver must be a SolverParams, got None"),
        (RunSpec, "noise", None, "noise must be a NoiseSpec, got None"),
        # a list is stored as a tuple, so the config hashes
        (ExperimentConfig, "phantom", list(builtin_phantom("nested-annuli")), None),
        # a count takes every scalar type a number takes, numpy's float32 included
        (GridRZ, "n_r", np.float32(8.0), None),
        (SolverParams, "max_iter", np.float32(5000.0), None),
        (GridRZ, "n_r", np.float16(2.5), "n_r must be an integer, got np.float16(2.5)"),
        (GridRZ, "n_r", np.float64(np.inf), "n_r must be an integer, got np.float64(inf)"),
        # a value past the int -> str digit limit is shown by its size, under its field
        *(
            pytest.param(record, field, value, f"{field} must {rule}, got an int of 16610 bits", id=f"{field}-huge")
            for record, field, value, rule in [
                (SolverParams, "lam", 10**5000, "be finite"),
                (NoiseSpec, "seed", 10**5000, f"be <= {2**128 - 1}"),
                (GridRZ, "n_r", -(10**5000), "be >= 2"),
            ]
        ),
        # n_r is bounded above, so a config that constructs fits in memory
        pytest.param(GridRZ, "n_r", 2049, "n_r must be <= 2048, got 2049", id="n_r-2049"),
        pytest.param(GridRZ, "n_r", 10**30, f"n_r must be <= 2048, got {10**30}", id="n_r-10**30"),
        pytest.param(GridRZ, "n_r", 1e30, f"n_r must be <= 2048, got {int(1e30)}", id="n_r-1e30"),
        pytest.param(
            ExperimentConfig, "grid_n", 10**30, f"grid_n: n_r must be <= 2048, got {10**30}", id="grid_n-10**30"
        ),
    ],
)
@pytest.mark.filterwarnings("error")
def test_records_hold_integer_counts(record, field, value, message):
    kwargs = {**_RECORDS[record], field: value}
    if message is not None:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            record(**kwargs)
        return
    got = record(**kwargs)
    assert got == record(**_RECORDS[record])
    assert hash(got) == hash(record(**_RECORDS[record]))
    assert type(getattr(got, field)) is type(_RECORDS[record][field])


class TestFieldContainers:
    def test_shape_validation(self):
        grid = GridRZ(4)
        with pytest.raises(ValueError):
            RadialField(grid, np.zeros((3, 9)))
        with pytest.raises(ValueError):
            DualField(grid, np.zeros((2, 4, 8)))

    def test_nonfinite_rejected(self):
        grid = GridRZ(4)
        bad = np.zeros((4, 9))
        bad[1, 2] = np.nan
        with pytest.raises(ValueError):
            ProjectionField(grid, bad)

    def test_fields_compare_by_identity_and_hash(self):
        grid = GridRZ(4)
        u, v = RadialField(grid, np.ones((4, 9))), RadialField(grid, np.ones((4, 9)))
        assert u == u and u != v
        assert len({u, v, DualField(grid, np.zeros((2, 4, 9)))}) == 3

    def test_indicator_family_compares_by_identity_and_hash(self):
        fam, twin = indicator_family(4), indicator_family(4)
        assert fam == fam and fam != twin
        assert len({fam, twin}) == 2

    def test_values_immutable(self):
        grid = GridRZ(4)
        u = RadialField(grid, np.zeros((4, 9)))
        with pytest.raises(ValueError):
            u.values[0, 0] = 1.0


class TestRevolve:
    def test_zero_field(self):
        grid = GridRZ(4)
        out = revolve(RadialField(grid, np.zeros((4, 9))), grid)
        assert out.shape == (9, 9, 5)
        assert not out.any()

    def test_indicator_revolve(self):
        grid = GridRZ(8)
        u = RadialField(grid, np.ones((8, 17)))
        out = revolve(u, grid)
        xy = np.arange(-8, 9) * grid.h
        rr = np.sqrt(xy[:, None] ** 2 + xy[None, :] ** 2)
        assert_array_equal(out[rr < 1.0, :], 1.0)
        assert_array_equal(out[rr >= 1.0, :], 0.0)

    def test_single_annulus_cell_membership(self):
        # n_r = 2: cell 2 is [0.5, 1); the revolved field is nonzero exactly
        # where 0.5 <= sqrt(x^2 + y^2) < 1, checked sample by sample.
        grid = GridRZ(2)
        vals = np.zeros((2, 5))
        vals[1, :] = 3.0
        out = revolve(RadialField(grid, vals), grid)
        xy = np.arange(-2, 3) * grid.h
        for i, x in enumerate(xy):
            for j, y in enumerate(xy):
                r = np.hypot(x, y)
                expected = 3.0 if 0.5 <= r < 1.0 else 0.0
                assert out[i, j, 0] == expected, (x, y, r)

    @pytest.mark.parametrize("n", [12, 100])
    def test_cell_rule_exact_at_cell_edges(self, n):
        # lattice point (a, b) lies in cell isqrt(a^2 + b^2); at n = 12 and
        # 100 some radii fall exactly on a cell edge, where floor(r/h) in
        # floating point can land one cell low
        grid = GridRZ(n)
        label = np.repeat(np.arange(1.0, n + 1)[:, None], grid.n_z, axis=1)
        out = revolve(RadialField(grid, label), grid)[:, :, 0]
        a = np.arange(-n, n + 1)
        want = np.array(
            [[math.isqrt(i * i + j * j) + 1 if i * i + j * j < n * n else 0 for j in a] for i in a]
        )
        assert_array_equal(out, want)
        counts = np.bincount(want[want > 0] - 1, minlength=n)
        assert_array_equal(_lattice_cell_counts(n), counts)

    @pytest.mark.parametrize("n", [2, 3, 5, 12, 30, 64, 100, 128, 257, 1000])
    def test_quadrant_counts_match_full_lattice(self, n):
        inside, cell = _lattice_cells(n)
        assert_array_equal(_lattice_cell_counts(n), np.bincount(cell[inside], minlength=n))

    def test_grid_mismatch(self):
        # g3 must be the field's grid; both public entries check it before
        # any work, so bound_report's other arguments are never read
        u = RadialField(GridRZ(4), np.zeros((4, 9)))
        message = r"^grid mismatch: g3 is GridRZ\(n_r=8\), the field's grid is GridRZ\(n_r=4\)$"
        with pytest.raises(ValueError, match=message):
            revolve(u, GridRZ(8))
        with pytest.raises(ValueError, match=message):
            bound_report(u, u, None, None, None, GridRZ(8))

    def test_linearity_exact(self):
        grid = GridRZ(6)
        rng = np.random.default_rng(0)
        a = rng.normal(size=(6, 13))
        b = rng.normal(size=(6, 13))
        alpha, beta = 1.7, -0.3
        lhs = revolve(RadialField(grid, alpha * a + beta * b), grid)
        rhs = alpha * revolve(RadialField(grid, a), grid) + beta * revolve(
            RadialField(grid, b), grid
        )
        assert_array_equal(lhs, rhs)

    @pytest.mark.parametrize("n_r", [32, 64])
    def test_cylindrical_integral_consistency(self, n_r):
        # Cartesian Riemann sum of the revolved field vs the cylindrically
        # weighted sum over the same axial rows, for a smooth radial profile.
        grid = GridRZ(n_r)
        profile = (1.0 - grid.r_centers**2) ** 2
        u = RadialField(grid, np.tile(profile[:, None], (1, grid.n_z)))
        u3 = revolve(u, grid)
        cart = grid.h**3 * np.sum(u3**2)
        upper = u.values[:, n_r:]
        cyl = 2.0 * np.pi * grid.h**2 * np.sum(grid.r_centers[:, None] * upper**2)
        assert abs(cart - cyl) / cyl <= 5.0 / n_r


def _replace_token(lines, token):
    """The CSV lines with the fourth token of the second data row replaced."""
    row = lines[2].split(",")
    row[3] = token
    return [*lines[:2], ",".join(row), *lines[3:]]


def _repr_sweep() -> np.ndarray:
    """200 000 random finite bit patterns, then the floats where shortest
    round-trip formatting has its edge cases."""
    rng = np.random.default_rng(20240)
    random = rng.integers(0, 2**64, size=210_000, dtype=np.uint64).view(np.float64)
    powers2 = np.ldexp(1.0, np.arange(-1074, 1024))
    powers10 = np.array([float(f"1e{k}") for k in range(-323, 309)])
    switches = np.array([1e-05, 1e-04, 1e15, 1e16])  # where repr's notation changes

    def with_neighbours(x):
        return np.concatenate([np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)])

    return np.concatenate([
        random[np.isfinite(random)][:200_000],
        powers2,
        -powers2,
        np.arange(1, 5001, dtype=np.uint64).view(np.float64),  # subnormal significands
        with_neighbours(powers10),
        2.0**53 + np.arange(-2000, 2001),
        with_neighbours(switches),
        [0.0, -0.0],
    ])


def _expected_csv(field) -> bytes:
    """What to_csv writes: the header, then each row's values in repr form."""
    g = field.grid
    lines = [f"# grid n_r={g.n_r} n_z={g.n_z} h={g.h!r}"]
    lines += [",".join(map(repr, row.tolist())) for row in field.values.reshape(-1, g.n_z)]
    return ("\n".join(lines) + "\n").encode()


class TestSerialization:
    @pytest.fixture
    def field(self):
        grid = GridRZ(5)
        rng = np.random.default_rng(42)
        vals = rng.normal(size=(5, 11)) * np.pi
        vals[0, 0] = 1.0 / 3.0
        vals[1, 1] = 1e-17
        return RadialField(grid, vals)

    def test_csv_roundtrip_bit_exact(self, field, tmp_path):
        path = tmp_path / "u.csv"
        field.to_csv(path)
        back = RadialField.from_csv(path)
        assert back.grid == field.grid
        assert_array_equal(back.values, field.values)

    def test_csv_header_format(self, field, tmp_path):
        path = tmp_path / "u.csv"
        field.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "# grid n_r=5 n_z=11 h=0.2"

    def test_projection_field_roundtrip(self, tmp_path):
        grid = GridRZ(3)
        f = ProjectionField(grid, np.random.default_rng(1).normal(size=(3, 7)))
        path = tmp_path / "f.csv"
        f.to_csv(path)
        assert_array_equal(ProjectionField.from_csv(path).values, f.values)

    def test_dual_field_roundtrip(self, tmp_path):
        grid = GridRZ(3)
        d = DualField(grid, np.random.default_rng(2).normal(size=(2, 3, 7)))
        path = tmp_path / "d.csv"
        d.to_csv(path)
        assert_array_equal(DualField.from_csv(path).values, d.values)

    @pytest.mark.parametrize(
        "header",
        ["# grid n_r=5 n_z=12 h=0.2", "# grid n_r=5 n_z=11 h=0.25", "# grid n_r=5 n_z=11 h=0.2000001"],
    )
    def test_csv_header_disagreeing_with_n_r_rejected(self, field, tmp_path, header):
        path = tmp_path / "u.csv"
        field.to_csv(path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([header, *lines[1:]]) + "\n")
        with pytest.raises(ValueError, match="disagrees with n_r"):
            RadialField.from_csv(path)

    def test_csv_roundtrip_extreme_values_bit_exact(self, tmp_path):
        vals = np.zeros((2, 5))
        vals[0] = [-0.0, 5e-324, 2.2250738585072014e-308, 1e-05, 1e16]
        vals[1] = -vals[0]
        u = RadialField(GridRZ(2), vals)
        path = tmp_path / "u.csv"
        u.to_csv(path)
        assert RadialField.from_csv(path).values.tobytes() == u.values.tobytes()

    def test_csv_tokens_are_repr_over_sweep(self, tmp_path):
        values = _repr_sweep()
        assert values.size > 210_000
        n_r = math.ceil(math.sqrt(values.size / 2))
        padded = np.zeros(n_r * (2 * n_r + 1))
        padded[: values.size] = values
        u = RadialField(GridRZ(n_r), padded.reshape(n_r, -1))
        path = tmp_path / "u.csv"
        u.to_csv(path)
        assert path.read_bytes() == _expected_csv(u)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(vals=arrays(np.float64, (3, 7), elements=st.floats(allow_nan=False, allow_infinity=False)))
    def test_csv_tokens_are_repr(self, tmp_path, vals):
        u = RadialField(GridRZ(3), vals)
        path = tmp_path / "u.csv"
        u.to_csv(path)
        assert path.read_bytes() == _expected_csv(u)

    @pytest.mark.parametrize("kind", ["dense", "four-blobs"])
    def test_csv_written_in_chunks(self, tmp_path, kind):
        # to_csv renders a few rows at a time, so an n_r = 256 field (131 328
        # values, 2.6 MB of text) never holds all its text in memory; the
        # phantom (85% zeros) takes the kernel's zero-splicing path
        grid = GridRZ(256)
        if kind == "dense":
            u = RadialField(grid, np.random.default_rng(3).normal(size=(grid.n_r, grid.n_z)))
        else:
            u = rasterize_phantom(builtin_phantom(kind), grid)
        tracemalloc.start()
        try:
            u.to_csv(tmp_path / "u.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    @pytest.mark.parametrize(
        "case", ["all-zero", "all-negative-zero", "nonzero-in-last-chunk", "zeros-across-boundary"]
    )
    def test_csv_zero_splice(self, tmp_path, case):
        # at n_r = 128 to_csv renders 31 rows at a time, in five chunks; the
        # kernel searches digits only for nonzeros and writes each zero's token
        grid = GridRZ(128)
        step = _CSV_CHUNK // grid.n_z
        assert step < grid.n_r
        if case == "all-zero":
            vals = np.zeros((grid.n_r, grid.n_z))
        elif case == "all-negative-zero":
            vals = np.full((grid.n_r, grid.n_z), -0.0)
        elif case == "nonzero-in-last-chunk":
            vals = np.zeros((grid.n_r, grid.n_z))
            vals[-1, 5] = -1.25e-7
        else:
            vals = np.random.default_rng(4).normal(size=(grid.n_r, grid.n_z))
            vals[step - 1, -4:] = [0.0, -0.0, 0.0, 0.0]  # the last values of the first chunk
            vals[step, :3] = [-0.0, 0.0, -0.0]  # the first values of the second
        u = RadialField(grid, vals)
        path = tmp_path / "u.csv"
        u.to_csv(path)
        assert path.read_bytes() == _expected_csv(u)

    @pytest.mark.parametrize(
        "edit, phrase",
        [
            (lambda lines: ["# grid n_z=11 h=0.2", *lines[1:]], "is not '# grid"),
            (lambda lines: ["# grid n_r=5 n_z=11 h", *lines[1:]], "is not '# grid"),
            (lambda lines: ["# grid n_r=five n_z=11 h=0.2", *lines[1:]], "five"),
            (lambda lines: ["# grid n_r=5 n_z=11 h=0.2x", *lines[1:]], "0.2x"),
            (lambda lines: lines[:1], "no rows"),
            (lambda lines: [*lines[:2], lines[2].rsplit(",", 1)[0], *lines[3:]], ""),
            (lambda lines: _replace_token(lines, "abc"), "abc"),
            (lambda lines: _replace_token(lines, "nan"), "finite"),
        ],
        ids=["lacks-n_r", "garbled-h", "non-integer-n_r", "non-numeric-h", "no-rows", "ragged-row",
             "non-numeric-token", "non-finite-token"],
    )
    def test_malformed_csv_rejected_naming_path(self, field, tmp_path, edit, phrase):
        path = tmp_path / "u.csv"
        field.to_csv(path)
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no warning from the reader leaks
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{re.escape(phrase)}"):
                RadialField.from_csv(path)

    @pytest.mark.parametrize("cls, lead", [(RadialField, ()), (DualField, (2,))])
    def test_csv_wrong_row_count_rejected_naming_path(self, tmp_path, cls, lead):
        path = tmp_path / "v.csv"
        cls(GridRZ(3), np.ones(lead + (3, 7))).to_csv(path)
        path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            cls.from_csv(path)
