"""Short-time transition densities for 1-D Langevin SDEs.

The package approximates the exponential that reweights Brownian paths into
drifted ones by a deterministic closed form built from the drift's flow map,
and turns that closed form into short-time transition kernels, density
propagation schemes, and samplers, all cross-checked against discretization
and Fokker-Planck references.
"""

from .drift import (
    AssumptionReport,
    DriftDomainError,
    DriftError,
    DriftEval,
    DriftExpr,
    DriftParseError,
    builtin_drift,
    eval_drift,
    parse_drift,
    validate_assumption,
)
from .evolution import (
    CompositionPlan,
    GridDensity,
    compose_chapman,
    density_distance,
    liouville_density,
    solve_fokker_planck,
)
from .girsanov import (
    BrownianPath,
    ErrorEstimate,
    MCConfig,
    RateFit,
    approx_exponential,
    approx_exponential_euler,
    lp_error,
    lp_errors,
    rate_fit,
    simulate_exponential,
    u_eval,
)
from .kernels import (
    GridSpec,
    InitialLaw,
    KernelKind,
    kernel_eval,
    kernel_matrix,
    marginal_density,
    normalization_defect,
)
from .lamperti import BracketError, LampertiError, LampertiMap, QuadratureError
from .sampler import (
    SampleSet,
    girsanov_kernel_cdf,
    ks_distance,
    sample_crypto,
    sample_em_path,
)

__all__ = [
    "AssumptionReport", "BracketError", "BrownianPath", "CompositionPlan",
    "DriftDomainError", "DriftError", "DriftEval", "DriftExpr",
    "DriftParseError", "ErrorEstimate", "GridDensity", "GridSpec",
    "InitialLaw", "KernelKind", "LampertiError", "LampertiMap", "MCConfig",
    "QuadratureError", "RateFit", "SampleSet",
    "approx_exponential", "approx_exponential_euler", "builtin_drift",
    "compose_chapman", "density_distance", "eval_drift",
    "girsanov_kernel_cdf", "kernel_eval", "kernel_matrix", "ks_distance",
    "liouville_density", "lp_error", "lp_errors", "marginal_density",
    "normalization_defect", "parse_drift", "rate_fit", "sample_crypto",
    "sample_em_path", "simulate_exponential", "solve_fokker_planck",
    "u_eval", "validate_assumption",
]
