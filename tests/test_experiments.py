import csv
import dataclasses
import json
import math
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import abeltv.analytic as analytic
import abeltv.experiments as experiments
from abeltv import (
    ExperimentConfig,
    GridRZ,
    NoiseSpec,
    PiecewiseConstantProfile,
    RunSpec,
    Shape,
    SolverParams,
    apply_abel,
    bound_ratios,
    bound_report,
    build_abel_matrix,
    builtin_phantom,
    random_step_profiles,
    rasterize_phantom,
    run_experiment,
    verify_bounds,
)
from abeltv.cli import main
from abeltv.experiments import RESULTS_HEADER
from abeltv.grids import ProjectionField, RadialField
from abeltv.metrics import DegenerateInstanceError
from abeltv.solver import SolverDivergedError


DELETE = object()  # a parameter value meaning "remove the key"
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**130), 2**130) | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)
# values a config field may legitimately hold, so that some perturbed configs parse
PLAUSIBLE = st.integers(1, 1000) | st.integers(1, 1000).map(float) | st.floats(0.001, 0.1)
# admissible fields of the records that hold a config's values
RECORD_FIELDS = {
    SolverParams: {"lam": 80.0, "tau": 0.2, "gamma": 0.2, "max_iter": 150, "record_every": 100},
    NoiseSpec: {"variance_fraction": 0.0005, "seed": 3},
    Shape: {"kind": "rect", "r": (0.0, 0.5), "z": (-0.5, 0.5), "level": 1.0},
}


# `abeltv verify-bounds --trials 1000 --seed S`, line for line, by S; the
# defaults' text is a file, which CI diffs the console script's stdout with
VERIFY_BOUNDS_STDOUT = {
    20240: (Path(__file__).parent / "verify_bounds_20240.txt").read_text().splitlines(),
    20241: [
        "bound suites: 1000 trials, seed 20241",
        "l2_product_bound                  max ratio 0.471195  PASS",
        "l1_product_bound                  max ratio 0.300942  PASS",
        "young_l2                          max ratio 0.944868  PASS",
        "young_l1                          max ratio 0.918453  PASS",
        "decay_slope_g_l1 (-1.5 +/- 0.02)  max ratio 0.000000  PASS",
        "decay_slope_g_l2 (-1.0 +/- 0.02)  max ratio 0.000000  PASS",
        "decay_slope_v_l2 (-0.5 +/- 0.02)  max ratio 0.000000  PASS",
        "sum_bound_witness_g16_l2 (< 0.1)  max ratio 0.498678  PASS",
        "indicator_tv_pinned (= 1)         max ratio 0.000000  PASS",
        "indicator_l2_ratio (< 1)          max ratio 0.471195  PASS",
        "all bounds hold",
    ],
    20250: [
        "bound suites: 1000 trials, seed 20250",
        "l2_product_bound                  max ratio 0.471195  PASS",
        "l1_product_bound                  max ratio 0.300942  PASS",
        "young_l2                          max ratio 0.945802  PASS",
        "young_l1                          max ratio 0.919815  PASS",
        "decay_slope_g_l1 (-1.5 +/- 0.02)  max ratio 0.000000  PASS",
        "decay_slope_g_l2 (-1.0 +/- 0.02)  max ratio 0.000000  PASS",
        "decay_slope_v_l2 (-0.5 +/- 0.02)  max ratio 0.000000  PASS",
        "sum_bound_witness_g16_l2 (< 0.1)  max ratio 0.498678  PASS",
        "indicator_tv_pinned (= 1)         max ratio 0.000000  PASS",
        "indicator_l2_ratio (< 1)          max ratio 0.471195  PASS",
        "all bounds hold",
    ],
}

INLINE = {"shapes": [{"kind": "rect", "r": [0.0, 0.5], "z": [-0.5, 0.5], "level": 1.0}]}


def small_config(tmp_path, runs=None, phantom="nested-annuli"):
    if runs is None:
        runs = [
            {"variance_fraction": 0.0005, "lambda": 80, "tau": 0.2, "gamma": 0.2, "max_iter": 150, "seed": 3},
            {"variance_fraction": 0.0001, "lambda": 120, "tau": 0.2, "gamma": 0.2, "max_iter": 150, "seed": 4},
        ]
    return {
        "grid_n": 16,
        "phantom": phantom,
        "output_dir": str(tmp_path / "out"),
        "runs": runs,
    }


class TestConfig:
    def test_from_dict_builtin_phantom(self, tmp_path):
        cfg = ExperimentConfig.from_dict(small_config(tmp_path))
        assert cfg.grid_n == 16
        assert cfg.phantom == builtin_phantom("nested-annuli")
        assert cfg.runs[0] == RunSpec(
            SolverParams(lam=80.0, tau=0.2, gamma=0.2, max_iter=150, record_every=100),
            NoiseSpec(variance_fraction=0.0005, seed=3),
        )
        assert cfg.runs[1].noise.seed == 4

    def test_from_dict_inline_phantom(self, tmp_path):
        shapes = [dataclasses.asdict(s) for s in builtin_phantom("four-blobs")]
        inline = json.loads(json.dumps({"shapes": shapes}))
        cfg = ExperimentConfig.from_dict(small_config(tmp_path, phantom=inline))
        assert cfg.phantom == builtin_phantom("four-blobs")

    def test_empty_runs_rejected_before_compute(self, tmp_path):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict(small_config(tmp_path, runs=[]))

    @pytest.mark.parametrize(
        "key, bad, field",
        [
            ("tau", 1.0, "tau"),
            ("gamma", math.inf, "gamma"),
            ("lambda", math.nan, "lam"),
            ("variance_fraction", math.nan, "variance_fraction"),
        ],
    )
    def test_inadmissible_run_rejected_before_compute(self, tmp_path, key, bad, field):
        obj = small_config(tmp_path)
        obj["runs"][1][key] = bad
        with pytest.raises(ValueError, match=field):
            ExperimentConfig.from_dict(obj)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "where, key, bad, message",
        [
            ("run", "max_iter", 2.7, "run 1: max_iter must be an integer"),
            ("run", "max_iter", True, "run 1: max_iter must be an integer"),
            ("run", "seed", 3.5, "run 1: seed must be an integer"),
            ("run", "record_every", "50", "run 1: record_every must be an integer"),
            # explicit ids keep these four cases' ids apart from their messages
            pytest.param("run", "lambda", "80", "run 1: lam must be a number",
                         id="run-lambda-80-run 1: lambda must be a number"),
            ("run", "tau", None, "run 1: tau must be a number"),
            ("run", "record_evry", 50, "run 1: unknown key 'record_evry'"),
            ("run", "lambda", DELETE, "run 1: missing key 'lambda'"),
            pytest.param("run", "seed", -1, "run 1: seed must be >= 0, got -1",
                         id="run-seed--1-run 1: seed must lie in"),
            pytest.param("top", "grid_n", 16.9, "config: grid_n: n_r must be an integer",
                         id="top-grid_n-16.9-config: grid_n must be an integer"),
            pytest.param("top", "grid_n", False, "config: grid_n: n_r must be an integer",
                         id="top-grid_n-False-config: grid_n must be an integer"),
            ("top", "grid_n", 1, "config: grid_n: n_r must be >= 2, got 1"),
            ("top", "grid", 16, "config: unknown key 'grid'"),
            ("top", "phantom", DELETE, "config: missing key 'phantom'"),
            ("top", "phantom", {"shape": []}, "config: phantom: malformed inline phantom"),
            ("top", "runs", {}, "config: runs must be a list"),
            ("top", "phantom", {**INLINE, "name": "x"}, "phantom: malformed inline phantom: unknown key 'name'"),
            (
                "top",
                "phantom",
                {"shapes": [INLINE["shapes"][0], {**INLINE["shapes"][0], "levle": 0.3}]},
                "phantom: malformed inline phantom: shape 1: unknown key 'levle'",
            ),
            (
                "top",
                "phantom",
                {"shapes": [{k: v for k, v in INLINE["shapes"][0].items() if k != "level"}]},
                "phantom: malformed inline phantom: shape 0: missing key 'level'",
            ),
            *(
                ("top", "phantom", {"shapes": [INLINE["shapes"][0], {**INLINE["shapes"][0], **shape}]},
                 f"phantom: malformed inline phantom: shape 1: {message}")
                for shape, message in [
                    ({"r": [0.0, math.nan]}, "r must be finite"),
                    ({"z": [-math.inf, 0.5]}, "z must be finite"),
                    ({"kind": "half_ellipse", "r": [0.5, -0.6], "z": [0.0, 0.3]}, "r semiaxis must be > 0"),
                    ({"kind": "half_ellipse", "r": [0.2, 0.1], "z": [0.0, -1.5]}, "z semiaxis must be > 0"),
                    ({"r": [0.5, 0.2]}, "r must satisfy r_lo < r_hi"),
                    ({"z": [0.3, -0.3]}, "z must satisfy z_lo <= z_hi"),
                ]
            ),
            (
                "top",
                "phantom",
                {"shapes": [{**INLINE["shapes"][0], "r": [0.0, 0.95]}]},
                "config: grid_n: shape Shape(kind='rect', r=(0.0, 0.95), z=(-0.5, 0.5), level=1.0) "
                "escapes the support box [0, 0.9375) x [-0.9375, 0.9375]",
            ),
            ("top", "grid_n", 2049, "config: grid_n: n_r must be <= 2048, got 2049"),
        ],
    )
    def test_malformed_config_rejected_before_compute(self, tmp_path, where, key, bad, message):
        obj = small_config(tmp_path)
        target = obj["runs"][1] if where == "run" else obj
        if bad is DELETE:
            del target[key]
        else:
            target[key] = bad
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentConfig.from_dict(obj)
        assert not (tmp_path / "out").exists()

    def test_integral_floats_accepted_as_integers(self, tmp_path):
        obj = small_config(tmp_path)
        obj["grid_n"] = 16.0
        obj["runs"][0].update(max_iter=150.0, seed=3.0, record_every=50.0)
        cfg = ExperimentConfig.from_dict(obj)
        run = cfg.runs[0]
        assert cfg.grid_n == 16 and type(cfg.grid_n) is int
        assert (run.solver.max_iter, run.noise.seed, run.solver.record_every) == (150, 3, 50)
        assert all(type(v) is int for v in (run.solver.max_iter, run.noise.seed, run.solver.record_every))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_perturbed_config_parses_as_given_or_raises_value_error(self, data):
        obj = small_config(Path("unused"))
        obj["runs"][0]["record_every"] = 50
        target = data.draw(st.sampled_from([obj, *obj["runs"]]), label="level")
        action = data.draw(st.sampled_from(["drop", "add", "replace"]), label="action")
        if action == "drop":
            del target[data.draw(st.sampled_from(sorted(target)), label="key")]
        else:
            key = data.draw(
                st.sampled_from(sorted(target)) if action == "replace" else st.text(max_size=8),
                label="key",
            )
            target[key] = data.draw(PLAUSIBLE | JSON_VALUES, label="value")
        try:
            cfg = ExperimentConfig.from_dict(obj)
        except ValueError:
            return
        assert cfg.grid_n == obj["grid_n"] and cfg.output_dir == Path(obj["output_dir"])
        rasterize_phantom(cfg.phantom, GridRZ(cfg.grid_n))  # a config that parses can run
        for run, r in zip(cfg.runs, obj["runs"], strict=True):
            assert run.solver == SolverParams(
                lam=r["lambda"],
                tau=r["tau"],
                gamma=r["gamma"],
                max_iter=r["max_iter"],
                record_every=r.get("record_every", 100),
            )
            assert run.noise == NoiseSpec(variance_fraction=r["variance_fraction"], seed=r["seed"])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_perturbed_record_builds_or_raises_value_error(self, data):
        # the Python path: a record built from any value either holds the
        # field's type or raises ValueError, never another exception
        record = data.draw(st.sampled_from(sorted(RECORD_FIELDS, key=lambda r: r.__name__)), label="record")
        key = data.draw(st.sampled_from(sorted(RECORD_FIELDS[record])), label="field")
        value = data.draw(PLAUSIBLE | JSON_VALUES, label="value")
        try:
            got = record(**{**RECORD_FIELDS[record], key: value})
        except ValueError:
            return
        assert type(getattr(got, key)) is type(RECORD_FIELDS[record][key])

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(small_config(tmp_path)))
        cfg = ExperimentConfig.from_json_file(path)
        assert len(cfg.runs) == 2


class TestRunExperiment:
    def test_outputs_and_reports(self, tmp_path):
        cfg = ExperimentConfig.from_dict(small_config(tmp_path))
        outcomes = run_experiment(cfg)
        assert [o.status for o in outcomes] == ["ok", "ok"]
        assert all(math.isfinite(o.c_star) for o in outcomes)

        results = (cfg.output_dir / "results.csv").read_text().splitlines()
        assert results[0] == RESULTS_HEADER
        assert len(results) == 1 + len(cfg.runs)
        row = results[1].split(",")
        assert float(row[0]) == 0.0005 and row[-1] == "ok"
        assert int(row[8]) == 150

        for i in range(2):
            for stem in ("energy", "u0", "ustar", "f", "fstar"):
                assert (cfg.output_dir / f"run{i:02d}_{stem}.csv").exists()
        back = RadialField.from_csv(cfg.output_dir / "run00_ustar.csv")
        assert back.grid.n_r == 16

    def test_results_header(self):
        # the header's bytes, pinned once; CI compares the console script's results.csv with RESULTS_HEADER
        assert RESULTS_HEADER == "sigma2_frac,err_l2_uh,resid_l2_vh,M1,c,M,c_star,energy_final,iterations,status"

    def test_output_dir_made_before_any_work(self, tmp_path, monkeypatch):
        # an output_dir that cannot be created fails before the phantom is rendered
        (tmp_path / "file").write_text("")
        cfg = ExperimentConfig.from_dict({**small_config(tmp_path), "output_dir": str(tmp_path / "file" / "out")})

        def unreachable(*args):
            raise AssertionError("rasterize_phantom called before output_dir was made")

        monkeypatch.setattr(experiments, "rasterize_phantom", unreachable)
        with pytest.raises(OSError):
            run_experiment(cfg)

    @pytest.mark.parametrize(
        "grid_n, message",
        [
            (1, "n_r must be >= 2, got 1"),
            (2.5, "n_r must be an integer, got 2.5"),
            pytest.param(10**30, f"n_r must be <= 2048, got {10**30}", id="10**30-too-large"),
            pytest.param(
                3,
                "shape Shape(kind='rect', r=(0.0, 0.72), z=(-0.75, 0.75), level=0.3) escapes the support box "
                "[0, 0.6666666666666667) x [-0.6666666666666667, 0.6666666666666667]",
                id="3-support-box",
            ),
        ],
    )
    def test_bad_grid_writes_nothing(self, tmp_path, grid_n, message):
        # a config built in Python passes the same grid_n checks as a parsed one
        cfg = ExperimentConfig.from_dict(small_config(tmp_path))
        with pytest.raises(ValueError, match=f"^grid_n: {re.escape(message)}$"):
            dataclasses.replace(cfg, grid_n=grid_n)
        assert not cfg.output_dir.exists()

    def test_csv_row_order(self, tmp_path):
        cfg = ExperimentConfig.from_dict(small_config(tmp_path))
        outcomes = run_experiment(cfg)
        with open(cfg.output_dir / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(outcomes)
        for row, run, out in zip(rows, cfg.runs, outcomes):
            assert out.sigma2_frac == run.noise.variance_fraction
            for name in RESULTS_HEADER.split(","):
                if name in ("iterations", "status"):
                    assert row[name] == str(getattr(out, name))
                else:
                    assert float(row[name]) == getattr(out, name)
            assert row["status"] == "ok"

    def test_record_holds_the_bound_report_of_its_dumps(self, tmp_path):
        # pins each column to the bound_report quantity of its name
        cfg = ExperimentConfig.from_dict(small_config(tmp_path))
        grid = GridRZ(cfg.grid_n)
        f0 = apply_abel(build_abel_matrix(grid), rasterize_phantom(cfg.phantom, grid))
        for i, out in enumerate(run_experiment(cfg)):
            u_star, u0 = (RadialField.from_csv(cfg.output_dir / f"run{i:02d}_{name}.csv") for name in ("ustar", "u0"))
            f_star, f = (ProjectionField.from_csv(cfg.output_dir / f"run{i:02d}_{name}.csv") for name in ("fstar", "f"))
            rep = bound_report(u_star, u0, f_star, f, f0, grid)
            assert (out.err_l2_uh, out.resid_l2_vh, out.M1, out.c, out.M, out.c_star) == (
                rep.err_l2_uh, rep.resid_l2_vh, rep.m1, rep.c, rep.m, rep.c_star
            )

    def test_energy_trace_csv(self, tmp_path):
        runs = [
            {"variance_fraction": 0.0005, "lambda": 80, "tau": 0.2, "gamma": 0.2, "max_iter": 110,
             "seed": 3, "record_every": 25}
        ]
        cfg = ExperimentConfig.from_dict(small_config(tmp_path, runs=runs))
        (outcome,) = run_experiment(cfg)
        lines = (cfg.output_dir / "run00_energy.csv").read_text().splitlines()
        assert lines[0] == "iteration,energy"
        assert [int(line.split(",")[0]) for line in lines[1:]] == [25, 50, 75, 100, 110]
        assert float(lines[-1].split(",")[1]) == outcome.energy_final

    def test_bit_identical_results_for_identical_config(self, tmp_path):
        cfg1 = ExperimentConfig.from_dict({**small_config(tmp_path), "output_dir": str(tmp_path / "a")})
        cfg2 = ExperimentConfig.from_dict({**small_config(tmp_path), "output_dir": str(tmp_path / "b")})
        run_experiment(cfg1)
        run_experiment(cfg2)
        a = (tmp_path / "a" / "results.csv").read_bytes()
        b = (tmp_path / "b" / "results.csv").read_bytes()
        assert a == b

    def test_zero_noise_large_lambda_near_exact_recovery(self, tmp_path):
        runs = [
            {"variance_fraction": 0.0, "lambda": 1e5, "tau": 0.2, "gamma": 0.2, "max_iter": 1500, "seed": 1}
        ]
        cfg = ExperimentConfig.from_dict({**small_config(tmp_path, runs=runs), "grid_n": 32})
        (outcome,) = run_experiment(cfg)
        assert outcome.status == "ok"
        assert outcome.err_l2_uh <= 0.02

    def test_failed_run_recorded_and_others_continue(self, tmp_path, monkeypatch):
        cfg = ExperimentConfig.from_dict(small_config(tmp_path))
        real_solve = experiments.solve_tv
        calls = {"n": 0}

        def flaky(A, f, params):
            calls["n"] += 1
            if calls["n"] == 1:
                raise SolverDivergedError(7)
            return real_solve(A, f, params)

        monkeypatch.setattr(experiments, "solve_tv", flaky)
        outcomes = run_experiment(cfg)
        assert [o.status for o in outcomes] == ["failed:SolverDivergedError", "ok"]
        assert outcomes[0].reason == "non-finite iterate at iteration 7" and outcomes[1].reason == ""
        assert all(math.isnan(getattr(outcomes[0], name)) for name in RESULTS_HEADER.split(",")[1:8])
        assert math.isnan(outcomes[0].solve_s) and outcomes[1].solve_s > 0
        results = (cfg.output_dir / "results.csv").read_text().splitlines()
        assert len(results) == 3
        assert results[1] == "0.0005,nan,nan,nan,nan,nan,nan,nan,0,failed:SolverDivergedError"
        assert results[2].endswith("ok")

    def test_u0_rendered_once_and_copied(self, tmp_path, monkeypatch):
        # u0 is rendered once per experiment, also when run 0 fails after
        # writing its u0 dump (its f dump raises, once)
        phantoms, rendered, failures = [], [], []
        rasterize, csv, to_csv = experiments.rasterize_phantom, RadialField._csv, ProjectionField.to_csv

        def recording_rasterize(*args):
            phantoms.append(rasterize(*args))
            return phantoms[-1]

        def recording_csv(field):
            rendered.append(field)
            return csv(field)

        def failing_once(field, path):
            if failures:
                raise failures.pop()
            to_csv(field, path)

        monkeypatch.setattr(experiments, "rasterize_phantom", recording_rasterize)
        monkeypatch.setattr(RadialField, "_csv", recording_csv)
        monkeypatch.setattr(ProjectionField, "to_csv", failing_once)
        for case, statuses in [("ok", ["ok", "ok"]), ("fail", ["failed:OSError", "ok"])]:
            phantoms.clear()
            rendered.clear()
            failures[:] = [OSError("disk full")] if case == "fail" else []
            cfg = ExperimentConfig.from_dict(small_config(tmp_path / case))
            assert [o.status for o in run_experiment(cfg)] == statuses
            assert len(phantoms) == 1 and sum(field is phantoms[0] for field in rendered) == 1
            first = (cfg.output_dir / "run00_u0.csv").read_bytes()
            assert (cfg.output_dir / "run01_u0.csv").read_bytes() == first
            assert RadialField.from_csv(cfg.output_dir / "run01_u0.csv").grid.n_r == 16

    def test_any_exception_in_a_run_is_isolated(self, tmp_path, monkeypatch):
        cfg = ExperimentConfig.from_dict(small_config(tmp_path))
        real_report = experiments.bound_report
        calls = {"n": 0}

        def degenerate(*args):
            calls["n"] += 1
            if calls["n"] == 1:
                raise DegenerateInstanceError("M = 0")
            return real_report(*args)

        monkeypatch.setattr(experiments, "bound_report", degenerate)
        outcomes = run_experiment(cfg)
        assert [o.status for o in outcomes] == ["failed:DegenerateInstanceError", "ok"]
        results = (cfg.output_dir / "results.csv").read_text().splitlines()
        assert results[1].endswith(",0,failed:DegenerateInstanceError")
        assert results[2].endswith("ok")
        assert sorted(p.name for p in cfg.output_dir.iterdir()) == [
            "results.csv",
            *(f"run01_{kind}.csv" for kind in ("energy", "f", "fstar", "u0", "ustar")),
        ]

    def test_interrupted_experiment_keeps_finished_rows(self, tmp_path, monkeypatch):
        cfg = ExperimentConfig.from_dict(small_config(tmp_path))
        real_solve = experiments.solve_tv
        calls = {"n": 0}

        def interrupted(A, f, params):
            calls["n"] += 1
            if calls["n"] == 2:
                raise KeyboardInterrupt
            return real_solve(A, f, params)

        monkeypatch.setattr(experiments, "solve_tv", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(cfg)
        results = (cfg.output_dir / "results.csv").read_text().splitlines()
        assert results[0] == RESULTS_HEADER
        assert len(results) == 2 and results[1].startswith("0.0005,") and results[1].endswith(",150,ok")
        assert not (cfg.output_dir / "results.csv.tmp").exists()


class TestVerifyBounds:
    def test_all_checks_pass(self):
        ratios = verify_bounds(seed=20240, trials=200)
        assert all(ratio <= 1.0 for ratio in ratios.values())
        names = list(ratios)
        assert "l2_product_bound" in names and "l1_product_bound" in names
        assert any("decay_slope" in n for n in names)

    def test_first_checks_are_the_bound_ratios(self):
        # the four stability checks reach the report under bound_ratios' names
        ratios = verify_bounds(seed=7, trials=100)
        want = bound_ratios(random_step_profiles(100, 7))
        assert list(ratios.items())[:4] == list(want.items())

    def test_ratios_reported_below_one(self):
        ratios = verify_bounds(seed=7, trials=100)
        for name, ratio in ratios.items():
            assert ratio <= 1.0, name

    def test_trials_drawn_through_public_stream(self, monkeypatch):
        # verify_bounds draws its trials from analytic.random_step_profiles,
        # the stream the demos and tests use, and from nothing else
        drawn = 0
        stream = analytic.random_step_profiles

        def counting(trials, seed):
            nonlocal drawn
            for row in stream(trials, seed):
                drawn += 1
                yield row

        monkeypatch.setattr(analytic, "random_step_profiles", counting)
        verify_bounds(seed=20240, trials=50)
        assert drawn == 50

    def test_random_trials_build_no_profiles(self, monkeypatch):
        # The trials flow as arrays from the draw to the ratio pass: only the
        # indicator-family members become profiles (the per-profile path
        # built 1010), and the memory held stays that of a few batches.
        built = 0
        post_init = PiecewiseConstantProfile.__post_init__

        def counting(self):
            nonlocal built
            built += 1
            post_init(self)

        monkeypatch.setattr(PiecewiseConstantProfile, "__post_init__", counting)
        tracemalloc.start()
        try:
            assert all(ratio <= 1.0 for ratio in verify_bounds(seed=20240, trials=1000).values())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < built <= 10
        assert peak < 4 * 2**20


class TestCLI:
    def test_phantom_subcommand(self, tmp_path):
        out = tmp_path / "u0.csv"
        rc = main(["phantom", "--name", "nested-annuli", "--out", str(out), "--n", "16"])
        assert rc == 0
        assert RadialField.from_csv(out).grid.n_r == 16

    def test_verify_bounds_subcommand(self, capsys):
        rc = main(["verify-bounds", "--trials", "50", "--seed", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "all bounds hold" in out

    @pytest.mark.parametrize("seed", sorted(VERIFY_BOUNDS_STDOUT))
    def test_verify_bounds_output_unchanged(self, capsys, seed):
        # the exact text of the suite, as the per-profile loop printed it
        assert main(["verify-bounds", "--trials", "1000", "--seed", str(seed)]) == 0
        assert capsys.readouterr().out.splitlines() == VERIFY_BOUNDS_STDOUT[seed]

    def test_verify_bounds_reports_a_violation(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "abeltv.cli.verify_bounds", lambda seed, trials: {"too_big": 1.25, "fine_check": 0.5}
        )
        assert main(["verify-bounds", "--trials", "3", "--seed", "4"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "bound suites: 3 trials, seed 4",
            "too_big     max ratio 1.250000  FAIL",
            "fine_check  max ratio 0.500000  PASS",
            "BOUND VIOLATION (implementation bug)",
        ]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--trials", "0"], "trials must be >= 1, got 0"),
            (["--seed", "-1"], "seed must be >= 0, got -1"),
        ],
    )
    def test_verify_bounds_rejects_bad_arguments(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(["verify-bounds", *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"abeltv: error: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda obj: obj["runs"][1].pop("seed"), "run 1: missing key 'seed'"),
            (lambda obj: obj.update(grid_n=1), "config: grid_n: n_r must be >= 2, got 1"),
            (lambda obj: obj.update(grid_n=10**30), f"config: grid_n: n_r must be <= 2048, got {10**30}"),
            (
                lambda obj: obj.update(grid_n=3),
                "config: grid_n: shape Shape(kind='rect', r=(0.0, 0.72), z=(-0.75, 0.75), level=0.3) "
                "escapes the support box",
            ),
            (None, "Expecting"),  # not JSON
        ],
    )
    def test_run_rejects_malformed_config(self, tmp_path, capsys, edit, message):
        obj = small_config(tmp_path)
        text = '{"grid_n": 16,'
        if edit is not None:
            edit(obj)
            text = json.dumps(obj)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cfg_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"abeltv: error: --config {cfg_path}: " in err and message in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_run_rejects_uncreatable_output_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("abeltv.cli.run_experiment", lambda cfg: pytest.fail("computed"))
        (tmp_path / "file").write_text("")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**small_config(tmp_path), "output_dir": str(tmp_path / "file" / "out")}))
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cfg_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"abeltv: error: --config {cfg_path}: output_dir: " in err
        assert "Not a directory" in err and "Traceback" not in err

    def test_phantom_rejects_too_few_cells(self, tmp_path, capsys):
        cases = [
            ("nested-annuli", "1", "n_r must be >= 2, got 1"),
            ("nested-annuli", str(10**30), f"n_r must be <= 2048, got {10**30}"),
            ("four-blobs", "5", "shape Shape(kind='half_ellipse', r=(0.2, 0.15), z=(-0.7, 0.12), level=0.4) "
             "escapes the support box [0, 0.8) x [-0.8, 0.8]"),
        ]
        for name, n, message in cases:
            with pytest.raises(SystemExit) as exc:
                main(["phantom", "--name", name, "--out", str(tmp_path / "u0.csv"), "--n", n])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"abeltv: error: argument --n: {message}" in err and "Traceback" not in err
            assert not (tmp_path / "u0.csv").exists()

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_phantom_unwritable_out_is_usage_error(self, tmp_path, capsys, where):
        out = tmp_path / "missing" / "u0.csv" if where == "missing-dir" else tmp_path
        with pytest.raises(SystemExit) as exc:
            main(["phantom", "--name", "nested-annuli", "--out", str(out), "--n", "8"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "abeltv: error: argument --out: " in err and str(out) in err
        assert "Traceback" not in err

    def test_run_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config(tmp_path)))
        rc = main(["run", "--config", str(cfg_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "status=ok" in out
        solve_s = [float(m) for m in re.findall(r" solve=([0-9.]+)s ", out)]
        assert len(solve_s) == 2 and all(s > 0 for s in solve_s)
        assert (tmp_path / "out" / "results.csv").exists()

    def test_run_subcommand_reports_a_failed_run_and_its_reason(self, tmp_path, capsys, monkeypatch):
        real_solve = experiments.solve_tv
        calls = {"n": 0}

        def flaky(A, f, params):
            calls["n"] += 1
            if calls["n"] == 1:
                raise SolverDivergedError(7)
            return real_solve(A, f, params)

        monkeypatch.setattr(experiments, "solve_tv", flaky)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config(tmp_path)))
        assert main(["run", "--config", str(cfg_path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "run 0: sigma2_frac=0.0005 status=failed:SolverDivergedError: non-finite iterate at iteration 7"
        assert lines[1].startswith("run 1: sigma2_frac=0.0001 ") and lines[1].endswith(" status=ok")

    def test_unknown_phantom_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["phantom", "--name", "nope", "--out", str(tmp_path / "x.csv")])
