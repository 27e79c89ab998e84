"""Total-variation-regularized inversion of the Abel integral equation.

The package builds the onion-peeling discretization of the Abel transform
on cylindrical grids, solves the TV-regularized least-squares problem with
a primal-dual iteration, and verifies the stability bounds and error
estimates of the underlying theory on synthetic phantoms and closed-form
analytic families.

The public surface is each module's ``__all__``, re-exported here.
"""

from .analytic import *  # noqa: F403
from .experiments import *  # noqa: F403
from .grids import *  # noqa: F403
from .metrics import *  # noqa: F403
from .operators import *  # noqa: F403
from .phantoms import *  # noqa: F403
from .solver import *  # noqa: F403

__version__ = "0.1.0"
