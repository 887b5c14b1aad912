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
    DriftExpr,
    DriftParseError,
    builtin_drift,
    parse_drift,
    validate_assumption,
)
from .evolution import (
    CompositionPlan,
    GridDensity,
    compose_chapman,
    density_distance,
    solve_fokker_planck,
)
from .girsanov import (
    ErrorEstimate,
    MCConfig,
    RateFit,
    approx_exponential,
    lp_errors,
    rate_fit,
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
from .lamperti import LampertiError, LampertiMap
from .sampler import (
    SampleSet,
    girsanov_kernel_cdf,
    ks_distance,
    sample_crypto,
    sample_em_path,
)

__all__ = [
    "AssumptionReport", "CompositionPlan", "DriftDomainError", "DriftError",
    "DriftExpr", "DriftParseError", "ErrorEstimate", "GridDensity", "GridSpec",
    "InitialLaw", "KernelKind", "LampertiError", "LampertiMap", "MCConfig",
    "RateFit", "SampleSet", "approx_exponential", "builtin_drift",
    "compose_chapman", "density_distance", "girsanov_kernel_cdf",
    "kernel_eval", "kernel_matrix", "ks_distance", "lp_errors",
    "marginal_density", "normalization_defect", "parse_drift", "rate_fit",
    "sample_crypto", "sample_em_path", "solve_fokker_planck", "u_eval",
    "validate_assumption",
]
