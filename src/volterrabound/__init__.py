"""Numerical solver and growth-bound certification for nonlinear
Volterra integral equations of the second kind,

    u(t) = f(t) + int_0^t a(t, s, u(s)) ds,   t >= 0.

The package solves the equation by product-trapezoidal time stepping
with blow-up detection, validates exponential decay envelopes on f and
the kernel, and searches for weight functions certifying a global bound
|u(t)| < exp(rate*t)/coefficient (or its power-law analogue).
"""

__version__ = "0.1.0"

from .certificate import (
    BoundReport,
    Certificate,
    Certified,
    ExponentComparison,
    ExponentialWeight,
    InequalityData,
    PowerWeight,
    Refused,
    check_weight,
    derive_inequality,
    search_exponential,
    search_power,
    verify_solution_bound,
)
from .comparison import propagate_majorant
from .expr import (
    Binary,
    Constant,
    EvalDomainError,
    Expr,
    ExprError,
    ExprSyntaxError,
    NonDifferentiableError,
    UnboundVariableError,
    Unary,
    Variable,
    differentiate,
    evaluate,
    parse,
    to_text,
    variables,
)
from .model import (
    ExponentialDecayData,
    HypothesisCheck,
    PowerDecayData,
    ProblemFileError,
    ProblemSpec,
    ValidationReport,
    VariableScopeError,
    build_problem,
    load_problem,
    problem_from_dict,
    validate_decay,
)
from .solver import (
    BlowUp,
    Completed,
    Grid,
    NonConvergenceError,
    StepFailure,
    Trajectory,
    picard_reference,
    solve,
    write_trajectory_csv,
)

__all__ = [
    "__version__",
    # expr
    "Expr",
    "Constant",
    "Variable",
    "Unary",
    "Binary",
    "parse",
    "evaluate",
    "differentiate",
    "to_text",
    "variables",
    "ExprError",
    "ExprSyntaxError",
    "UnboundVariableError",
    "EvalDomainError",
    "NonDifferentiableError",
    # model
    "ExponentialDecayData",
    "PowerDecayData",
    "ProblemSpec",
    "HypothesisCheck",
    "ValidationReport",
    "VariableScopeError",
    "ProblemFileError",
    "build_problem",
    "validate_decay",
    "load_problem",
    "problem_from_dict",
    # solver
    "Grid",
    "Trajectory",
    "Completed",
    "BlowUp",
    "StepFailure",
    "NonConvergenceError",
    "solve",
    "picard_reference",
    "write_trajectory_csv",
    # certificate
    "InequalityData",
    "ExponentialWeight",
    "PowerWeight",
    "Certificate",
    "Certified",
    "Refused",
    "ExponentComparison",
    "BoundReport",
    "derive_inequality",
    "check_weight",
    "search_exponential",
    "search_power",
    "verify_solution_bound",
    # comparison
    "propagate_majorant",
]
