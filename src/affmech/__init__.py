"""Hamiltonian mechanics and Hamilton-Jacobi checks on Lie affgebroids.

Everything works in a single coordinate chart: structure data is entered as
plain scalar expressions, validity of the axioms is certified numerically at
seeded sample points, and the central equivalence between the pointwise HJ
condition and the Hamilton equations along reduced trajectories is verified
on built-in or user-supplied models.
"""

from .expr import (
    DomainError,
    EvalError,
    Expr,
    ParseError,
    UnboundVariableError,
    evaluate,
    parse,
    substitute,
    to_string,
)
from .algebroid import (
    AlgebroidChart,
    KSection,
    Morphism,
    SamplePlan,
    ValidationReport,
    differential,
    prolong,
    pullback,
    validate_chart,
)
from .affgebroid import (
    AffgebroidChart,
    CoSection,
    HamiltonianSection,
    VStarSection,
    eta,
    lambda_h,
    omega_h,
    pullback_identities,
    reeb,
    vertical_restriction_check,
)
from .dynamics import Trajectory, integrate
from .hj import (
    NotACocycleError,
    TheoremReport,
    cocycle_residual,
    f_of,
    hj_reports,
    verify_theorem,
)
from . import models

__version__ = "0.1.0"
