"""Total-variation-regularized inversion of the Abel integral equation.

The package builds the onion-peeling discretization of the Abel transform
on cylindrical grids, solves the TV-regularized least-squares problem with
a primal-dual iteration, and verifies the stability bounds and error
estimates of the underlying theory on synthetic phantoms and closed-form
analytic families.
"""

from .analytic import (
    C_L1_2D,
    C_L2_2D,
    YOUNG_L1,
    YOUNG_L2,
    IndicatorFamily,
    PiecewiseConstantProfile,
    abel_transform,
    bound_ratios,
    indicator_family,
    j_norms,
    j_transform,
    random_step_profiles,
    stieltjes_inverse,
)
from .experiments import (
    ExperimentConfig,
    RunOutcome,
    RunSpec,
    run_experiment,
    verify_bounds,
)
from .grids import (
    DualField,
    GridRZ,
    GridXYZ,
    ProjectionField,
    RadialField,
    make_grids,
    revolve,
)
from .metrics import (
    BoundReport,
    DegenerateInstanceError,
    bound_report,
    norm_l2_uh,
    norm_l2_vh,
    norm_linf,
    tv_seminorm,
)
from .operators import (
    AbelMatrix,
    apply_abel,
    apply_abel_transpose,
    build_abel_matrix,
    divergence,
    gradient,
)
from .phantoms import (
    BUILTIN_PHANTOM_NAMES,
    NoiseSpec,
    Shape,
    add_noise,
    builtin_phantom,
    rasterize_phantom,
)
from .solver import (
    SolveResult,
    SolverDivergedError,
    SolverParams,
    energy,
    solve_onion_peeling,
    solve_tv,
)

__version__ = "0.1.0"
