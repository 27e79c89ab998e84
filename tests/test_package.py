"""The package root and the commands' BLAS thread count.

``import abeltv`` serves the modules' ``__all__`` on first access, so it
loads no numpy, and ``abeltv.cli`` can pin BLAS to one thread before numpy
reads the count. These run in fresh interpreters, since this process
loaded numpy (on one thread) long ago.
"""

import json

import abeltv

MODULES = ("analytic", "experiments", "grids", "metrics", "operators", "phantoms", "solver")


def test_import_loads_no_numpy_and_star_is_the_modules_all(python):
    code = (
        "import sys, abeltv; print('numpy' in sys.modules); "
        "ns = {}; exec('from abeltv import *', ns); del ns['__builtins__']; print(sorted(ns))"
    )
    loaded, names = python(["-c", code]).splitlines()
    assert loaded == "False"
    union = [name for m in MODULES for name in getattr(abeltv, m).__all__]
    assert len(union) == len(set(union))  # no module shadows another's name
    assert names == str(sorted(union))


def test_run_pipeline_loads_no_stability_suite(python):
    code = "import sys, abeltv.experiments; print('abeltv.analytic' in sys.modules)"
    assert python(["-c", code]) == "False\n"


def test_root_serves_modules_and_names():
    for m in MODULES:
        module = getattr(abeltv, m)
        assert module.__name__ == f"abeltv.{m}"
        for name in module.__all__:
            assert getattr(abeltv, name) is getattr(module, name)
    assert set(abeltv.__all__) <= set(dir(abeltv))


def test_a_name_set_on_the_root_wins(monkeypatch):
    # the benchmark's layer trace replaces names on the package root
    monkeypatch.setattr(abeltv, "solve_tv", "traced")
    assert abeltv.solve_tv == "traced"


def test_cli_pins_blas_unless_the_count_is_set(python):
    code = "import os, abeltv.cli; print([os.environ.get(v) for v in ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS')])"
    assert python(["-c", code]) == "['1', '1']\n"
    # a user's count wins
    assert python(["-c", code], OPENBLAS_NUM_THREADS="2") == "['2', '1']\n"
    # a process that loaded numpy first keeps its own setting
    assert python(["-c", "import numpy; " + code]) == "[None, None]\n"


def test_run_bytes_do_not_depend_on_the_blas_variables(tmp_path, python):
    """``abeltv run`` with the BLAS variables unset writes the bytes of a run
    with ``OPENBLAS_NUM_THREADS=1``. At n_r = 128 the inverse and the K q
    product give other bits on two threads than on one. On a one-CPU
    runner OpenBLAS uses one thread either way, and this passes trivially."""
    run = {"variance_fraction": 0.0005, "lambda": 80, "tau": 0.2, "gamma": 0.2, "max_iter": 200, "seed": 102}
    written = {}
    for label, env in (("unset", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})):
        cfg = tmp_path / f"{label}.json"
        out = tmp_path / label
        cfg.write_text(json.dumps({"grid_n": 128, "phantom": "nested-annuli", "output_dir": str(out), "runs": [run]}))
        python(["-m", "abeltv.cli", "run", "--config", str(cfg)], **env)
        written[label] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert sorted(written["one"]) == sorted(written["unset"])
    assert "results.csv" in written["one"]
    for name, data in written["one"].items():
        assert written["unset"][name] == data, name
