"""Symbolic verification engine for q-Painleve Weyl group symmetries.

Families D5, E6 and E7 carry extended affine Weyl group actions on their
parameters, gauge symmetries of the associated three-term linear
q-difference equations, and a time-evolution map assembled from a Weyl word
and a rescaling.  This package encodes the data, verifies every identity by
randomized evaluation over a large prime field (with an exact normalization
path for small cases), and iterates the nonlinear systems in exact rational
arithmetic.
"""

from .expr import (
    DivisionByZero,
    Expr,
    ExprError,
    ExprSyntaxError,
    UnknownSymbolError,
    evaluate,
    parse,
    substitute,
    to_latex,
    to_string,
)
from .identity import (
    CheckConfig,
    ConstraintRelation,
    DEFAULT_PRIME,
    DEFAULT_TRIALS,
    DegenerateComparison,
    IdentityResult,
    exact_zero,
    identities_equal,
)
from .lax import (
    CLAIMS,
    GaugeClaim,
    LinearQDE,
    apply_gauge,
    build_L1,
    equations_equivalent,
    substitute_params,
    verify_gauge_claim,
    verify_gauge_claims,
)
from .evolution import (
    OrbitResult,
    OrbitState,
    PoleError,
    make_evolution_spec,
    make_state,
    orbit,
    orbit_step,
    orbit_to_json,
    time_evolution,
    verify_theorem_i,
    verify_theorem_ii,
)
from .report import CheckResult, Report
from .weyl import (
    FAMILY_NAMES,
    FamilyDescriptor,
    Transformation,
    compose,
    make_family,
    parse_word,
    verify_braid,
    verify_involutions,
    verify_pi_relations,
    verify_relations,
    word_to_transform,
)

__version__ = "0.1.0"
