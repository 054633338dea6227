"""Numerical laboratory for stationary shear-thinning flow with
inhomogeneous divergence and boundary data.

The pipeline follows the constructive skeleton of the existence theory
for power-law (p-delta) fluids: lift the data into a discrete velocity
field, estimate every constant entering the coercivity condition, test
the smallness inequality for an explicit radius, solve the regularized
Galerkin systems along a penalty continuation, and exhibit the failure
of any such radius under low data regularity.
"""

from .constitutive import (
    Characteristics,
    PDeltaModel,
    estimate_characteristics,
    eval_stress,
    inequality_sweep,
    young_gap,
)
from .certifier import (
    CoercivityReport,
    check_smallness,
    compute_constants,
    compute_s,
    polynomial_positivity_check,
    scaling_sweep,
    weight_optimality_scan,
)
from .counterexample import (
    TwoNormFamily,
    build_family,
    construct_u_n,
    counterexample_scan,
    find_y_n,
)
from .discretization import (
    DiscreteSpace,
    EmbeddingConstants,
    Field,
    RectDomain,
    build_space,
    estimate_embedding_constants,
    estimate_korn,
    estimate_sobolev,
    norm_Lp,
    norm_sym_grad_p,
)
from .lifting import BoundaryData, LiftField, lift
from .solver import (
    ProblemInstance,
    SolveResult,
    SolverConfig,
    continuation_solve,
    convective_identity_diagnostics,
    default_config,
    make_instance,
    recover_pressure,
    solve_regularized,
)

__version__ = "0.1.0"
