"""Total-variation-regularized inversion of the Abel integral equation.

The package builds the onion-peeling discretization of the Abel transform
on cylindrical grids, solves the TV-regularized least-squares problem with
a primal-dual iteration, and verifies the stability bounds and error
estimates of the underlying theory on synthetic phantoms and closed-form
analytic families.

The public surface is the union of the modules' ``__all__``, served here on
first access (PEP 562): ``import abeltv`` loads no submodule and so no
numpy, and a name, once looked up, is cached in this module's namespace.
"""

import importlib

__version__ = "0.1.0"

_MODULES = ("analytic", "experiments", "grids", "metrics", "operators", "phantoms", "solver")


def __getattr__(name: str):
    if name in (*_MODULES, "cli"):  # not via the search below: cli must load before numpy
        return importlib.import_module(f"{__name__}.{name}")
    modules = [importlib.import_module(f"{__name__}.{m}") for m in _MODULES]
    if name == "__all__":
        value = [n for m in modules for n in m.__all__]
    else:
        owner = next((m for m in modules if name in m.__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULES, *__getattr__("__all__")})
