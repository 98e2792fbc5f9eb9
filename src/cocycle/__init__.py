"""Constructive solver for the inhomogeneous Cauchy equation.

Given a continuous F(x, y) of the form g(x+y) - g(x) - g(y), the solvers
here rebuild a continuous f with F(x, y) = f(x+y) - f(x) - f(y), first on
rationals by exact lattice recursion and then on reals by a controlled
limit.  A separate route handles smooth kernels through a directional
derivative and quadrature, and verification helpers measure residuals
and modulus-of-continuity bounds.
"""

from __future__ import annotations

from .continuous import (
    ENGINES,
    ConvergenceError,
    LatticeSolver,
    ReconstructedFunction,
    grid_keys,
    h_rational,
    reconstruct_point,
    reconstruct_table,
)
from .expressions import (
    BUILTIN_SEEDS,
    EvaluationError,
    FuncSpec,
    ParseError,
    bivariate_expression,
    builtin_seed,
    cocycle_from_seed,
    eval_expr,
    parse_expr,
    seed_expression,
)
from .rational import (
    EuclidChain,
    euclid_chain,
    format_rational,
    parse_rational,
)
from .smooth import (
    DerivativeProfile,
    QuadratureError,
    antiderivative,
    derivative_profile,
    directional_derivative,
    reconstruct_ck_point,
    reconstruct_ck_table,
)
from .verify import (
    CheckResult,
    VerificationReport,
    affine_difference,
    check_bound_c0,
    cocycle_residual,
    kurepa_residual,
    modulus_estimate,
    modulus_probe,
    symmetry_residual,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # rational
    "EuclidChain",
    "euclid_chain",
    "parse_rational",
    "format_rational",
    # expressions
    "ParseError",
    "EvaluationError",
    "parse_expr",
    "eval_expr",
    "FuncSpec",
    "BUILTIN_SEEDS",
    "bivariate_expression",
    "seed_expression",
    "builtin_seed",
    "cocycle_from_seed",
    # continuous
    "ENGINES",
    "LatticeSolver",
    "ConvergenceError",
    "ReconstructedFunction",
    "h_rational",
    "reconstruct_point",
    "reconstruct_table",
    "grid_keys",
    # smooth
    "QuadratureError",
    "DerivativeProfile",
    "directional_derivative",
    "derivative_profile",
    "antiderivative",
    "reconstruct_ck_point",
    "reconstruct_ck_table",
    # verify
    "CheckResult",
    "VerificationReport",
    "kurepa_residual",
    "symmetry_residual",
    "cocycle_residual",
    "modulus_estimate",
    "modulus_probe",
    "check_bound_c0",
    "affine_difference",
]
