"""Numerical toolkit for weakly coupled systems of Kolmogorov equations.

Evolves the vector semigroup of a weakly coupled second-order elliptic
system on truncated boxes, constructs the associated system of invariant
measures, and checks the quantitative properties of the semigroup
(positivity, contraction, domination, invariance, derivative-estimate
rates, long-time convergence) as executable reports.
"""

# Keep this block above every import: numpy and SciPy read these variables
# once, when they load their BLAS, and every kolsys module imports them.
# Every BLAS call kolsys makes is small (the largest is a supernode of a
# d = 2 SuperLU factor), so a second BLAS thread adds CPU time and no speed.
# Inherited values are overwritten; OMP_NUM_THREADS reaches every OpenMP
# library in the process and is left alone.
import os

os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"), "1"))
del os

from kolsys.coefficients import (
    BuiltinFamily,
    CoefficientField,
    DerivativeBundle,
    derivative_bundle,
    evaluate,
    make_builtin,
)
from kolsys.discretization import (
    DiscreteOperator,
    Grid,
    GridFunction,
    assemble_adjoint_operator,
    assemble_scalar_operator,
    assemble_system_operator,
    build_grid,
)
from kolsys.hypotheses import (
    KernelVector,
    SampleSpec,
    check_growth,
    check_hypotheses,
    check_lyapunov,
    compute_common_kernel,
    estimate_kp,
    spectral_check_C,
)
from kolsys.invariant_measure import (
    MeasureDensity,
    MeasureSystem,
    build_measure_system,
    check_infinitesimal_invariance,
    functional_Mf,
    oracle_density_1d,
    solve_scalar_invariant_density,
)
from kolsys.properties import (
    counterexample_mode,
    estimate_gradient_rate,
    jordan_asymptotics_check,
    verify_fixed_points,
    verify_invariance,
    verify_l2_gradient_decay,
    verify_longtime,
    verify_lp_bound,
    verify_positivity,
    verify_semigroup_bounds,
)
from kolsys.reports import CheckRecord, HypothesisReport, PropertyReport, RateFit
from kolsys.semigroup import (
    NestedSolveResult,
    Trajectory,
    cesaro_average,
    discrete_average,
    evolve,
    solve_nested,
    step,
)

__all__ = [
    "BuiltinFamily",
    "CheckRecord",
    "CoefficientField",
    "DerivativeBundle",
    "DiscreteOperator",
    "Grid",
    "GridFunction",
    "HypothesisReport",
    "KernelVector",
    "MeasureDensity",
    "MeasureSystem",
    "NestedSolveResult",
    "PropertyReport",
    "RateFit",
    "SampleSpec",
    "Trajectory",
    "assemble_adjoint_operator",
    "assemble_scalar_operator",
    "assemble_system_operator",
    "build_grid",
    "build_measure_system",
    "cesaro_average",
    "check_growth",
    "check_hypotheses",
    "check_infinitesimal_invariance",
    "check_lyapunov",
    "compute_common_kernel",
    "counterexample_mode",
    "derivative_bundle",
    "discrete_average",
    "estimate_gradient_rate",
    "estimate_kp",
    "evaluate",
    "evolve",
    "functional_Mf",
    "jordan_asymptotics_check",
    "make_builtin",
    "oracle_density_1d",
    "solve_nested",
    "solve_scalar_invariant_density",
    "spectral_check_C",
    "step",
    "verify_fixed_points",
    "verify_invariance",
    "verify_l2_gradient_decay",
    "verify_longtime",
    "verify_lp_bound",
    "verify_positivity",
    "verify_semigroup_bounds",
]

__version__ = "0.1.0"
