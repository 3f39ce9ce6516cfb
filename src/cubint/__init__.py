"""cubint — cubic first integrals of 2-D geodesic flows.

Given a two-dimensional (pseudo-)Riemannian metric and a holomorphic
3-codifferential, decide whether the geodesic flow admits a first integral
cubic in momenta with that codifferential as its leading part, produce the
integral explicitly when a closed formula applies, and verify the result
independently (symbolic Poisson bracket + numeric geodesic conservation).
"""

__version__ = "0.1.0"

from .expr import (  # noqa: F401
    Box,
    EvalDomainError,
    Expr,
    ExpressionSyntaxError,
    UnknownIdentifier,
    ZeroTestConfig,
    ZeroVerdict,
    diff,
    eval_at,
    is_zero,
    parse,
    simplify,
    to_str,
)
from .cnum import CExpr, parse_complex  # noqa: F401
from .geometry import (  # noqa: F401
    ChartMismatch,
    Metric,
    gauss_curvature,
    general_metric,
    isothermal_metric,
    null_metric,
)
from .tensorcoords import SymTensor3, a_hat_from_complex  # noqa: F401
from .invariants import (  # noqa: F401
    Codifferential,
    DegenerateBracket,
    HolomorphicityViolated,
    InvariantEngine,
    InvariantReport,
)
from .verify import (  # noqa: F401
    MomentumPoly,
    bracket_FH,
    bracket_certificate,
    canonical_bracket_FH,
    conservation_report,
    integrate_geodesic,
)
from .decision import Verdict, decide  # noqa: F401
from .pseudo import (  # noqa: F401
    bracket_FH_null,
    decide_pseudo,
    normal_form_metric,
    quasi_holo_check,
)
